package medium

import (
	"math/rand"
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// triangle: nodes 1, 2, 3 all within range of each other.
func triangle(t testing.TB) *field.Field {
	t.Helper()
	f := field.New(100, 100, 30)
	for id, pt := range map[field.NodeID]field.Point{
		1: {X: 10, Y: 10},
		2: {X: 30, Y: 10},
		3: {X: 20, Y: 25},
	} {
		if err := f.Place(id, pt); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func airMedium(t testing.TB, k *sim.Kernel, f *field.Field, cs bool) *Medium {
	t.Helper()
	return New(k, f, Config{
		BandwidthBps: 40_000,
		Airtime:      AirtimeConfig{Enabled: true, CarrierSense: cs},
	})
}

func data(sender field.NodeID, seq uint64, size int) *packet.Packet {
	return &packet.Packet{
		Type: packet.TypeData, Seq: seq, Origin: sender, Sender: sender,
		PrevHop: sender, Receiver: packet.Broadcast, Payload: make([]byte, size),
	}
}

func TestAirtimeOverlapDestroysBothFrames(t *testing.T) {
	k := sim.New(1)
	f := triangle(t)
	m := airMedium(t, k, f, false)
	got := map[field.NodeID]int{}
	for _, id := range f.IDs() {
		id := id
		if err := m.Attach(id, func(*packet.Packet) { got[id]++ }); err != nil {
			t.Fatal(err)
		}
	}
	// Nodes 1 and 2 transmit simultaneously: node 3 hears both frames
	// overlapping and decodes neither; 1 and 2 each hear only the other's
	// frame (no self-interference modeled at the transmitter), so they
	// decode it cleanly.
	if err := m.Broadcast(data(1, 1, 50)); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(data(2, 2, 50)); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[3] != 0 {
		t.Fatalf("node 3 decoded %d overlapping frames", got[3])
	}
	if got[1] != 1 || got[2] != 1 {
		t.Fatalf("non-colliding receptions lost: got1=%d got2=%d", got[1], got[2])
	}
	if m.Stats().AirtimeCollisions < 2 {
		t.Fatalf("AirtimeCollisions = %d", m.Stats().AirtimeCollisions)
	}
}

func TestAirtimeSequentialFramesBothDecode(t *testing.T) {
	k := sim.New(1)
	f := triangle(t)
	m := airMedium(t, k, f, false)
	got := 0
	if err := m.Attach(3, func(*packet.Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(1, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(2, func(*packet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	// 50-byte frame at 40 kbps occupies ~17 ms; space transmissions 100ms.
	if err := m.Broadcast(data(1, 1, 50)); err != nil {
		t.Fatal(err)
	}
	k.After(100*time.Millisecond, func() {
		if err := m.Broadcast(data(2, 2, 50)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("node 3 decoded %d sequential frames, want 2", got)
	}
	if m.Stats().AirtimeCollisions != 0 {
		t.Fatalf("AirtimeCollisions = %d", m.Stats().AirtimeCollisions)
	}
}

func TestAirtimePartialOverlapCollides(t *testing.T) {
	k := sim.New(1)
	f := triangle(t)
	m := airMedium(t, k, f, false)
	got := 0
	for _, id := range f.IDs() {
		cb := func(*packet.Packet) {}
		if id == 3 {
			cb = func(*packet.Packet) { got++ }
		}
		if err := m.Attach(id, cb); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Broadcast(data(1, 1, 100)); err != nil {
		t.Fatal(err)
	}
	// Second frame starts midway through the first (~20ms of ~23ms).
	k.After(10*time.Millisecond, func() {
		if err := m.Broadcast(data(2, 2, 100)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("partially overlapping frames decoded: %d", got)
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// Classic hidden terminal: 1 and 3 cannot hear each other but both
	// reach 2. Carrier sense cannot help; their frames collide at 2.
	f := field.New(200, 50, 30)
	f.Place(1, field.Point{X: 0, Y: 0})
	f.Place(2, field.Point{X: 25, Y: 0})
	f.Place(3, field.Point{X: 50, Y: 0})
	k := sim.New(1)
	m := New(k, f, Config{BandwidthBps: 40_000, Airtime: AirtimeConfig{Enabled: true, CarrierSense: true}})
	got := 0
	for _, id := range f.IDs() {
		cb := func(*packet.Packet) {}
		if id == 2 {
			cb = func(*packet.Packet) { got++ }
		}
		if err := m.Attach(id, cb); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Broadcast(data(1, 1, 80)); err != nil {
		t.Fatal(err)
	}
	if err := m.Broadcast(data(3, 2, 80)); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("hidden-terminal frames decoded at the middle node: %d", got)
	}
	if m.Stats().CarrierDeferrals != 0 {
		t.Fatal("carrier sense deferred despite hidden terminals")
	}
}

func TestCarrierSenseDefers(t *testing.T) {
	k := sim.New(1)
	f := triangle(t)
	m := airMedium(t, k, f, true)
	got := map[field.NodeID]int{}
	for _, id := range f.IDs() {
		id := id
		if err := m.Attach(id, func(*packet.Packet) { got[id]++ }); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 transmits; shortly after (while the frame is in the air)
	// node 2 wants to transmit. With carrier sense it defers and both
	// frames arrive intact at node 3.
	if err := m.Broadcast(data(1, 1, 100)); err != nil {
		t.Fatal(err)
	}
	k.After(5*time.Millisecond, func() {
		if err := m.Broadcast(data(2, 2, 100)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[3] != 2 {
		t.Fatalf("node 3 decoded %d frames with carrier sense, want 2", got[3])
	}
	if m.Stats().CarrierDeferrals == 0 {
		t.Fatal("no deferrals recorded")
	}
	if m.Stats().AirtimeCollisions != 0 {
		t.Fatalf("collisions despite carrier sense: %d", m.Stats().AirtimeCollisions)
	}
}

func TestCarrierSenseGivesUpAfterMaxAttempts(t *testing.T) {
	k := sim.New(1)
	f := triangle(t)
	m := New(k, f, Config{
		BandwidthBps: 40_000,
		Airtime: AirtimeConfig{
			Enabled: true, CarrierSense: true,
			MaxAttempts: 2, MaxBackoff: time.Millisecond,
		},
	})
	for _, id := range f.IDs() {
		if err := m.Attach(id, func(*packet.Packet) {}); err != nil {
			t.Fatal(err)
		}
	}
	// Node 1 occupies the channel with a huge frame (64 KB ≈ 13 s);
	// node 2's attempts all find the channel busy and give up.
	if err := m.Broadcast(data(1, 1, 60_000)); err != nil {
		t.Fatal(err)
	}
	k.After(time.Millisecond, func() {
		if err := m.Broadcast(data(2, 2, 50)); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().CarrierDrops != 1 {
		t.Fatalf("CarrierDrops = %d, want 1", m.Stats().CarrierDrops)
	}
}

func TestAirtimeScenarioEndToEnd(t *testing.T) {
	// A small flood over the contention medium still works: spaced-out
	// transmissions dominate, so most receptions survive.
	k := sim.New(4)
	f := triangle(t)
	m := airMedium(t, k, f, true)
	got := 0
	for _, id := range f.IDs() {
		id := id
		if err := m.Attach(id, func(*packet.Packet) { got++; _ = id }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		i := i
		sender := field.NodeID(i%3 + 1)
		k.After(time.Duration(i)*80*time.Millisecond, func() {
			_ = m.Broadcast(data(sender, uint64(i), 40))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 20 frames x 2 receivers each = 40 possible receptions.
	if got < 35 {
		t.Fatalf("only %d/40 receptions under light load", got)
	}
}

// refAirInterval and refAirState are the pointer-per-reception airState
// the slab replaced: one heap interval per reception, kept per station and
// dropped by prune. TestAirSlabMatchesReference holds the slab to it.
type refAirInterval struct {
	from       field.NodeID
	start, end time.Duration
	corrupted  bool
}

type refAirState struct {
	perStation map[field.NodeID][]*refAirInterval
}

func (a *refAirState) prune(rx field.NodeID, now time.Duration) {
	keep := a.perStation[rx][:0]
	for _, iv := range a.perStation[rx] {
		if iv.end > now {
			keep = append(keep, iv)
		}
	}
	a.perStation[rx] = keep
}

func (a *refAirState) add(rx, from field.NodeID, start, end time.Duration) *refAirInterval {
	a.prune(rx, start)
	iv := &refAirInterval{from: from, start: start, end: end}
	for _, other := range a.perStation[rx] {
		if other.from != from && other.start < end && start < other.end {
			other.corrupted = true
			iv.corrupted = true
		}
	}
	a.perStation[rx] = append(a.perStation[rx], iv)
	return iv
}

func (a *refAirState) busy(id field.NodeID, now time.Duration) bool {
	a.prune(id, now)
	for _, iv := range a.perStation[id] {
		if iv.start <= now && now < iv.end {
			return true
		}
	}
	return false
}

// TestAirSlabMatchesReference drives the slab and the reference through
// the same random script of overlapping receptions, carrier-sense probes
// and deliveries, the way the medium does: a reception's verdict is read
// once at end+propagation (or never, when a fault drops it at transmit),
// and its slot is released then. Every verdict and every busy answer must
// match, and once all deliveries have run and every interval has expired,
// every slab slot must be free again.
func TestAirSlabMatchesReference(t *testing.T) {
	const stations = 6
	var seen [2][2]int // [verdict, busy][false, true] outcomes compared
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var slab airState
		ref := refAirState{perStation: map[field.NodeID][]*refAirInterval{}}
		sts := make([]*station, stations+1)
		for id := range sts {
			sts[id] = &station{}
		}
		type pending struct {
			at   time.Duration
			slot int32
			ref  *refAirInterval
		}
		var queue []pending
		deliverDue := func(now time.Duration) {
			keep := queue[:0]
			for _, p := range queue {
				if p.at > now {
					keep = append(keep, p)
					continue
				}
				if got, want := slab.ivs[p.slot].corrupted, p.ref.corrupted; got != want {
					t.Fatalf("seed %d t=%v: verdict %v, reference %v", seed, now, got, want)
				}
				seen[0][b2i(p.ref.corrupted)]++
				slab.release(p.slot)
			}
			queue = keep
		}
		now := time.Duration(0)
		peak := 0
		for op := 0; op < 2000; op++ {
			now += time.Duration(rng.Intn(40)) * time.Microsecond
			deliverDue(now)
			rx := field.NodeID(1 + rng.Intn(stations))
			switch rng.Intn(4) {
			case 0:
				got, want := slab.busy(sts[rx], now), ref.busy(rx, now)
				if got != want {
					t.Fatalf("seed %d t=%v: busy(%d) %v, reference %v", seed, now, rx, got, want)
				}
				seen[1][b2i(want)]++
			default:
				from := field.NodeID(1 + rng.Intn(stations))
				end := now + time.Duration(1+rng.Intn(200))*time.Microsecond
				slot := slab.add(sts[rx], from, now, end)
				iv := ref.add(rx, from, now, end)
				if rng.Intn(8) == 0 {
					slab.release(slot) // fault-dropped: no delivery reads it
					continue
				}
				prop := time.Duration(rng.Intn(10)) * time.Microsecond
				queue = append(queue, pending{at: end + prop, slot: slot, ref: iv})
			}
			if live := len(slab.ivs) - len(slab.free); live > peak {
				peak = live
			}
		}
		now += time.Hour
		deliverDue(now)
		for id := 1; id <= stations; id++ {
			slab.prune(sts[id], now)
		}
		if len(slab.free) != len(slab.ivs) {
			t.Fatalf("seed %d: %d of %d slots still held after every delivery and expiry",
				seed, len(slab.ivs)-len(slab.free), len(slab.ivs))
		}
		if len(slab.ivs) > peak {
			t.Fatalf("seed %d: slab grew to %d slots for a peak of %d live intervals", seed, len(slab.ivs), peak)
		}
	}
	for i, name := range []string{"verdict", "busy"} {
		if seen[i][0] == 0 || seen[i][1] == 0 {
			t.Fatalf("script never produced both %s outcomes: %v", name, seen[i])
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
