package detector

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/neighbor"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
	"liteworp/internal/watch"
)

// overheardHintFree is the REQ path of liteworpDetector.Overheard without
// the coverage mask: every eligible neighbor gets an ExpectIdx call. It
// returns each call's outcome by neighbor. It is the reference the
// production path's skips are checked against.
func overheardHintFree(d *liteworpDetector, p *packet.Packet) map[field.NodeID]bool {
	table, buf, key := d.env.Table, d.buffer, p.Key()
	if p.PrevHop != p.Sender && table.IsGuardOf(p.PrevHop, p.Sender) &&
		!buf.HeardAny(key) && !buf.RecentInterference(2*buf.Config().Timeout) {
		buf.AccuseFabrication(p.Sender, key)
	}
	buf.MarkForwardedIdx(buf.Intern(p.Sender), key)
	out := map[field.NodeID]bool{}
	if d.env.Suspect(p.Sender) || (p.Sender != table.Self() && !table.HasEntry(p.Sender)) {
		return out
	}
	idxs := table.NeighborIdxs()
	for i, a := range table.Neighbors() {
		if a == p.Sender || a == p.Origin || a == p.FinalDest || routeContains(p.Route, a) {
			continue
		}
		out[a] = buf.ExpectIdx(idxs[i], key)
	}
	return out
}

// floodSide is one guard incarnation under a flood script: its kernel,
// neighbor table, detector and accusation log.
type floodSide struct {
	k   *sim.Kernel
	d   *liteworpDetector
	log []string
}

// boot builds a fresh guard incarnation (self = 1) over nbrs, interned in
// the given order, on the side's kernel. The old incarnation's timers
// keep firing into its own buffer and log under the old generation.
func (s *floodSide) boot(nbrs []field.NodeID, gen int) {
	table := neighbor.NewTable(1)
	for _, id := range nbrs {
		table.AddDirect(id)
	}
	d, err := New(Env{
		Clock: s.k,
		Table: table,
		OnAccusation: func(a Accusation) {
			s.log = append(s.log, fmt.Sprintf("g%d acc %d %v %d %v %v", gen, a.Accused, a.Reason, a.MalC, a.Key, a.At))
		},
		OnThreshold: func(id field.NodeID) {
			s.log = append(s.log, fmt.Sprintf("g%d thr %d", gen, id))
		},
	}, DefaultConfig())
	if err != nil {
		panic(err)
	}
	s.d = d.(*liteworpDetector)
}

// runFloodScript replays one randomized flood script against the
// production Overheard and the hint-free reference in lockstep, and
// returns how many coverage bits the production buffer held after its
// copies (so the caller can tell the mask was exercised).
func runFloodScript(t *testing.T, seed int64) (coveredBits int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	hint := &floodSide{k: sim.New(seed)}
	ref := &floodSide{k: sim.New(seed)}

	// Up to 90 neighbors, interned in random order, so nbrIdx is unrelated
	// to ID order and larger tables pass the mask's 64 bits.
	deg := 4 + rng.Intn(87)
	nbrs := make([]field.NodeID, 0, deg)
	for _, v := range rng.Perm(300)[:deg] {
		nbrs = append(nbrs, field.NodeID(v+2))
	}
	// A third of the neighbors rarely forward (one pick in eight gets
	// through): most expectations on them fire as drops after tau.
	silent := map[field.NodeID]bool{}
	for _, id := range nbrs {
		silent[id] = rng.Intn(3) == 0
	}
	gen := 0
	hint.boot(nbrs, gen)
	ref.boot(nbrs, gen)

	// A few floods run concurrently; each keeps its accumulated route.
	type flood struct {
		origin, dest field.NodeID
		seq          uint64
		route        []field.NodeID
	}
	var floods []*flood
	newFlood := func() {
		origin := nbrs[rng.Intn(len(nbrs))]
		floods = append(floods, &flood{
			origin: origin, dest: field.NodeID(400 + rng.Intn(10)),
			seq: uint64(len(floods) + 1), route: []field.NodeID{origin},
		})
	}
	newFlood()

	const ops = 400
	for op := 0; op < ops; op++ {
		switch r := rng.Intn(20); {
		case r < 14:
			// One copy of a flood from a random sender, claiming as its
			// previous hop the flood's last route hop (a guarded link
			// whose fabrication check passes or fails with the heard
			// cache), itself (a fresh broadcast), or a stranger (a link
			// nobody guards).
			f := floods[rng.Intn(len(floods))]
			sender := nbrs[rng.Intn(len(nbrs))]
			if silent[sender] && rng.Intn(8) != 0 {
				continue
			}
			prev := f.route[len(f.route)-1]
			switch rng.Intn(6) {
			case 0:
				prev = sender
			case 1:
				prev = field.NodeID(500 + rng.Intn(20))
			}
			p := &packet.Packet{
				Type: packet.TypeRouteRequest, Origin: f.origin, Seq: f.seq, FinalDest: f.dest,
				Sender: sender, PrevHop: prev, Receiver: packet.Broadcast,
				Route: append([]field.NodeID(nil), f.route...),
			}
			if prev == sender && sender != f.origin {
				p.Route = append(p.Route, sender)
			}
			if rng.Intn(3) == 0 && len(f.route) < 6 {
				f.route = append(f.route, sender)
			}
			key := p.Key()
			before := make([]bool, len(nbrs))
			for i, a := range nbrs {
				before[i] = hint.d.buffer.Watching(a, key)
			}
			hint.d.Overheard(p)
			want := overheardHintFree(ref.d, p)
			for i, a := range nbrs {
				got := !before[i] && hint.d.buffer.Watching(a, key)
				if got != want[a] {
					t.Fatalf("seed %d op %d: ExpectIdx outcome on %d for %v: production armed=%v, hint-free armed=%v",
						seed, op, a, p, got, want[a])
				}
			}
			coveredBits += bits.OnesCount64(hint.d.buffer.Covered(key))
		case r < 16:
			newFlood()
		case r < 18:
			// Let deadlines fire and caches age.
			d := time.Duration(rng.Intn(700)) * time.Millisecond
			hint.k.RunFor(d)
			ref.k.RunFor(d)
		case r < 19:
			// A late copy's worth of time: past CacheTTL, every heard
			// record and mask bit from a forward has lapsed.
			d := watch.DefaultConfig().Timeout*10 + time.Duration(rng.Intn(2000))*time.Millisecond
			hint.k.RunFor(d)
			ref.k.RunFor(d)
		default:
			if rng.Intn(3) == 0 {
				// Reboot mid-flood: a fresh incarnation with an empty
				// buffer overhears the rest of the flood.
				gen++
				hint.boot(nbrs, gen)
				ref.boot(nbrs, gen)
			}
		}
		compareFloodSides(t, seed, op, hint, ref)
	}
	hint.k.RunFor(time.Minute)
	ref.k.RunFor(time.Minute)
	compareFloodSides(t, seed, ops, hint, ref)
	return coveredBits
}

// compareFloodSides checks the accusations logged since the last call and
// the watch stats, then clears the logs.
func compareFloodSides(t *testing.T, seed int64, op int, hint, ref *floodSide) {
	t.Helper()
	if g, w := fmt.Sprint(hint.log), fmt.Sprint(ref.log); g != w {
		t.Fatalf("seed %d op %d: accusations diverge:\n production: %s\n hint-free:  %s", seed, op, g, w)
	}
	hint.log, ref.log = hint.log[:0], ref.log[:0]
	if g, w := hint.d.buffer.Stats(), ref.d.buffer.Stats(); g != w {
		t.Fatalf("seed %d op %d: watch stats diverge:\n production: %+v\n hint-free:  %+v", seed, op, g, w)
	}
}

// TestFloodCoverageHintIsExact replays randomized REQ floods — copies from
// random senders in random order, silent neighbors whose expectations
// drop, late copies after CacheTTL, neighbor tables past 64 interned
// entries, reboots mid-flood — through the production Overheard and the
// hint-free reference, and requires identical ExpectIdx outcomes,
// accusations and watch stats.
func TestFloodCoverageHintIsExact(t *testing.T) {
	covered := 0
	for seed := int64(1); seed <= 40; seed++ {
		covered += runFloodScript(t, seed)
	}
	if covered == 0 {
		t.Fatal("no coverage bit was ever set; the scripts do not exercise the mask")
	}
}

// floodBench is one guard at the given degree and the copies of a single
// flood, one per neighbor, in rebroadcast order.
type floodBench struct {
	k      *sim.Kernel
	d      Detector
	copies []*packet.Packet
}

// The kernel runs the heap queue: the calendar queue resizes as its depth
// swings between floods, a sim-layer cost that would swamp the guard's.
func newFloodBench(deg int) *floodBench {
	k := sim.NewWithQueue(1, sim.NewHeapQueue())
	table := neighbor.NewTable(1)
	for j := 0; j < deg; j++ {
		table.AddDirect(field.NodeID(j + 2))
	}
	d, err := New(Env{Clock: k, Table: table}, DefaultConfig())
	if err != nil {
		panic(err)
	}
	fb := &floodBench{k: k, d: d}
	origin := field.NodeID(2)
	prev := origin
	for j := 0; j < deg; j++ {
		sender := field.NodeID(j + 2)
		fb.copies = append(fb.copies, &packet.Packet{
			Type: packet.TypeRouteRequest, Origin: origin, FinalDest: 999,
			Sender: sender, PrevHop: prev, Receiver: packet.Broadcast,
			Route: []field.NodeID{origin},
		})
		prev = sender
	}
	return fb
}

// flood overhears every neighbor's copy of flood seq, then lets the
// flood's deadlines and cache sweeps run.
func (fb *floodBench) flood(seq uint64) {
	for _, p := range fb.copies {
		p.Seq = seq
		fb.d.Overheard(p)
	}
	fb.k.RunFor(100 * time.Millisecond)
}

// BenchmarkOverheardREQFlood measures the guard's cost per overheard REQ
// copy: each iteration overhears every neighbor's copy of one flood.
func BenchmarkOverheardREQFlood(b *testing.B) {
	for _, deg := range []int{9, 24} {
		b.Run(fmt.Sprintf("degree-%d", deg), func(b *testing.B) {
			fb := newFloodBench(deg)
			for i := 0; i < 100; i++ {
				fb.flood(uint64(i + 1))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.flood(uint64(i + 101))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*deg), "ns/copy")
		})
	}
}

// TestOverheardREQAllocsWarm pins the REQ Overheard path at zero
// allocations once the guard's tables, freelist and wheel are warm.
func TestOverheardREQAllocsWarm(t *testing.T) {
	fb := newFloodBench(24)
	seq := uint64(0)
	for ; seq < 200; seq++ {
		fb.flood(seq + 1)
	}
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		fb.flood(seq)
	})
	if allocs != 0 {
		t.Fatalf("warm REQ flood allocates %.2f objects per flood, want 0", allocs)
	}
}
