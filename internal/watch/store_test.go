package watch

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// The differential suite: a randomized operation script drives the
// production buffer and the map-based reference model (refmodel_test.go)
// in lockstep, each on its own kernel, and every observable output —
// method returns, query results, accusation and threshold streams, stats,
// and virtual timestamps — must match after every operation. Every
// coverage bit the buffer reports must also name a forwarder the
// reference would refuse to expect. The script mixes bursts (to cross
// open-addressing capacity boundaries in both directions, and to intern
// forwarders past the 64 coverage bits), long idle stretches (so the
// expiry wheel sweeps and the tables shrink), and reboots (buffer
// recreation mid-run, with the old incarnation's timers still firing).

// diffOps is the script length per seed; diffSeeds the number of seeds.
const (
	diffOps   = 500
	diffSeeds = 24
)

// diffPair is the production buffer and the reference model under one
// script.
type diffPair struct {
	t          *testing.T
	seed       int64
	op         int
	kb, kr     *sim.Kernel
	b          *Buffer
	r          *refBuffer
	logB, logR []string
}

// check fails the test unless both sides produced the same observation.
func (p *diffPair) check(what string, got, want any) {
	p.t.Helper()
	if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
		p.t.Fatalf("seed %d op %d: %s diverges:\n buffer:    %s\n reference: %s", p.seed, p.op, what, g, w)
	}
}

// sync compares the accusation/threshold streams, stats and queue length.
func (p *diffPair) sync() {
	p.t.Helper()
	p.check("observation log", p.logB, p.logR)
	p.check("stats", p.b.Stats(), p.r.Stats())
	p.check("len", p.b.Len(), p.r.Len())
	p.logB, p.logR = p.logB[:0], p.logR[:0]
}

// checkCoverage asserts the one-way coverage invariant for key: every set
// bit names a forwarder on which Expect would be a no-op.
func (p *diffPair) checkCoverage(key packet.Key) {
	p.t.Helper()
	for cov := p.b.Covered(key); cov != 0; cov &= cov - 1 {
		id := p.b.Index().ID(int32(bits.TrailingZeros64(cov)))
		if p.r.wouldExpect(id, key) {
			p.t.Fatalf("seed %d op %d: coverage bit set for node %d on %v, but Expect would arm", p.seed, p.op, id, key)
		}
	}
}

// runStoreScript replays the op script derived from seed against both
// implementations.
func runStoreScript(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := &diffPair{t: t, seed: seed, kb: sim.New(seed + 1), kr: sim.New(seed + 1)}
	gen := 0

	cfg := Config{
		Timeout:              50 * time.Millisecond,
		CacheTTL:             200 * time.Millisecond,
		Window:               2 * time.Second,
		Threshold:            5,
		FabricationIncrement: 3,
		DropIncrement:        1,
	}
	logger := func(log *[]string, g int) (func(Accusation), func(field.NodeID)) {
		return func(a Accusation) {
				*log = append(*log, fmt.Sprintf("g%d acc %d %v %d %v %v", g, a.Accused, a.Reason, a.MalC, a.Key, a.At))
			}, func(id field.NodeID) {
				*log = append(*log, fmt.Sprintf("g%d thr %d", g, id))
			}
	}
	boot := func() {
		onAcc, onThr := logger(&p.logB, gen)
		p.b = New(p.kb, cfg, onAcc, onThr)
		onAcc, onThr = logger(&p.logR, gen)
		p.r = newRefBuffer(p.kr, cfg, onAcc, onThr)
	}
	boot()

	node := func() field.NodeID { return field.NodeID(1 + rng.Intn(8)) }
	somekey := func() packet.Key {
		types := []packet.Type{packet.TypeRouteRequest, packet.TypeRouteReply, packet.TypeData}
		return packet.Key{
			Type:   types[rng.Intn(len(types))],
			Origin: field.NodeID(1 + rng.Intn(4)),
			Seq:    uint64(rng.Intn(24)),
		}
	}

	for p.op = 0; p.op < diffOps; p.op++ {
		switch rng.Intn(13) {
		case 0, 1:
			n, k := node(), somekey()
			p.b.RecordHeard(n, k)
			p.r.RecordHeard(n, k)
		case 2, 3:
			n, k := node(), somekey()
			p.check("Expect", p.b.Expect(n, k), p.r.Expect(n, k))
		case 4, 5:
			n, k := node(), somekey()
			p.check("MarkForwarded", p.b.MarkForwarded(n, k), p.r.MarkForwarded(n, k))
		case 6:
			n, k := node(), somekey()
			p.check("Heard", p.b.Heard(n, k), p.r.Heard(n, k))
			p.check("HeardAny", p.b.HeardAny(k), p.r.HeardAny(k))
			p.check("Watching", p.b.Watching(n, k), p.r.Watching(n, k))
			p.checkCoverage(k)
		case 7:
			n, k := node(), somekey()
			p.b.AccuseFabrication(n, k)
			p.r.AccuseFabrication(n, k)
		case 8:
			n := node()
			p.check("MalC", p.b.MalC(n), p.r.MalC(n))
			p.check("ThresholdFired", p.b.ThresholdFired(n), p.r.ThresholdFired(n))
		case 9:
			// Advance virtual time: deadlines expire (drop accusations),
			// wheel sweeps reclaim caches and MalC records.
			d := time.Duration(rng.Intn(400)) * time.Millisecond
			p.kb.RunFor(d)
			p.kr.RunFor(d)
		case 10:
			// Burst: drive the tables across a capacity boundary, then on a
			// later idle stretch the sweep takes them back down (shrink).
			// Some forwarders come from a wide ID range, so interning
			// passes the coverage mask's 64 bits.
			base := uint64(1000 * (p.op + 1))
			for i := uint64(0); i < uint64(64+rng.Intn(64)); i++ {
				k := packet.Key{Type: packet.TypeRouteRequest, Origin: node(), Seq: base + i}
				n := node()
				if i%3 == 0 {
					n = field.NodeID(100 + rng.Intn(80))
				}
				p.b.RecordHeard(n, k)
				p.r.RecordHeard(n, k)
				if i%4 == 0 {
					n = node()
					p.check("burst Expect", p.b.Expect(n, k), p.r.Expect(n, k))
				}
			}
		case 11:
			// Flood copy: mark the sender forwarded, then expect every
			// other node except where the coverage mask says Expect is a
			// no-op — the detector's REQ loop. The reference expects all
			// of them; the outcomes must agree node for node.
			sender, k := node(), somekey()
			p.check("flood MarkForwarded", p.b.MarkForwarded(sender, k), p.r.MarkForwarded(sender, k))
			p.checkCoverage(k)
			cov := p.b.Covered(k)
			nbrs := []field.NodeID{1, 2, 3, 4, 5, 6, 7, 8, field.NodeID(100 + rng.Intn(80))}
			for _, n := range nbrs {
				if n == sender {
					continue
				}
				got := false
				if idx, ok := p.b.Index().Lookup(n); !ok || cov>>uint32(idx)&1 == 0 {
					got = p.b.Expect(n, k)
				}
				p.check(fmt.Sprintf("flood Expect(%d)", n), got, p.r.Expect(n, k))
			}
		case 12:
			if rng.Intn(4) == 0 {
				// Reboot: a fresh incarnation takes over; the dead one's
				// timers still fire and must behave identically on both
				// sides.
				gen++
				boot()
			}
		}
		p.sync()
	}
	p.kb.RunFor(5 * time.Second) // drain every deadline and sweep
	p.kr.RunFor(5 * time.Second)
	p.sync()
}

// TestWatchStoreEquivalence is the randomized buffer-vs-reference
// differential suite: diffSeeds seeds, diffOps operations each.
func TestWatchStoreEquivalence(t *testing.T) {
	for seed := int64(1); seed <= diffSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			runStoreScript(t, seed)
		})
	}
}

// FuzzWatchStoreEquivalence lets the fuzzer hunt for a seed whose script
// splits the buffer from the reference.
func FuzzWatchStoreEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runStoreScript(t, seed)
	})
}
