package watch

import (
	"testing"
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// TestExpiryBoundaryConvention pins the single liveness convention for every
// expiring record: live strictly before the expiry instant, dead exactly at
// it. Readers (Heard/HeardAny, Expect's already-forwarded check) and the
// wheel sweep must agree, so a record can never be dead to a reader yet
// immortal in the map or vice versa.
func TestExpiryBoundaryConvention(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond, CacheTTL: time.Second})
	b.RecordHeard(3, key(1, 1))
	b.MarkForwarded(3, key(1, 1))

	var liveBefore, liveAt, anyAt, reExpectAt bool
	k.At(time.Second-time.Nanosecond, func() { liveBefore = b.Heard(3, key(1, 1)) })
	k.At(time.Second, func() {
		liveAt = b.Heard(3, key(1, 1))
		anyAt = b.HeardAny(key(1, 1))
		// The forward's heard record died at the same instant, so a new
		// expectation must be accepted again.
		reExpectAt = b.Expect(3, key(1, 1))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !liveBefore {
		t.Fatal("record dead one instant before its expiry")
	}
	if liveAt || anyAt {
		t.Fatalf("record live at now == exp (Heard=%v HeardAny=%v); convention is now < exp", liveAt, anyAt)
	}
	if !reExpectAt {
		t.Fatal("forwarded suppression still active at now == exp")
	}
}

// cacheSizes reports the live record counts of the two CacheTTL caches.
func (s *store) cacheSizes() (heard, heardAny int) {
	return s.heardAt.Len(), s.anyAt.Len()
}

// TestWheelReclaimsCaches: the heard and heard-any tables are emptied by
// the shared sweep — expiry is not just a reader-side illusion. Forwards
// land in the heard cache too, so two senders per key give two heard
// records and one heard-any record.
func TestWheelReclaimsCaches(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond, CacheTTL: time.Second})
	for i := uint64(0); i < 50; i++ {
		b.RecordHeard(3, key(1, i))
		b.MarkForwarded(4, key(1, i))
	}
	if h, a := b.store.cacheSizes(); h != 100 || a != 50 {
		t.Fatalf("cache sizes %d/%d before expiry, want 100/50", h, a)
	}
	k.RunFor(5 * time.Second)
	if h, a := b.store.cacheSizes(); h != 0 || a != 0 {
		t.Fatalf("cache sizes %d/%d after expiry, want 0 each", h, a)
	}
}

// TestWheelReclaimsMalc: an accused node whose observations all age out of
// the window without firing the threshold is forgotten entirely; a fired
// record persists because ThresholdFired is a latch.
func TestWheelReclaimsMalc(t *testing.T) {
	k := sim.New(1)
	cfg := Config{Timeout: 100 * time.Millisecond, Threshold: 4, Window: 10 * time.Second}
	b, _, _ := newBuffer(k, cfg)
	b.AccuseFabrication(7, key(1, 1)) // +3, below threshold 4
	b.AccuseFabrication(8, key(1, 2)) // +3
	b.AccuseFabrication(8, key(1, 3)) // +3 -> 6, fires
	if !b.ThresholdFired(8) || b.ThresholdFired(7) {
		t.Fatal("threshold latch wrong before expiry")
	}
	k.RunFor(15 * time.Second)
	if aidx, ok := b.idx.Lookup(7); !ok {
		t.Fatal("accused node was never interned")
	} else if b.store.malc(aidx) != nil {
		t.Fatal("unfired MalC record not reclaimed after window")
	}
	if !b.ThresholdFired(8) {
		t.Fatal("fired MalC record lost its latch")
	}
	if b.MalC(8) != 0 {
		t.Fatalf("MalC(8) = %d after window, want 0", b.MalC(8))
	}
}

// TestSharedWheelConfig: a buffer handed an external wheel schedules its
// housekeeping through it instead of building a private one.
func TestSharedWheelConfig(t *testing.T) {
	k := sim.New(1)
	w := sim.NewWheel(k, time.Second)
	b := New(k, Config{Timeout: 100 * time.Millisecond, CacheTTL: time.Second, Wheel: w}, nil, nil)
	b.RecordHeard(3, key(1, 1))
	k.RunFor(5 * time.Second)
	if got := w.Stats().Records; got == 0 {
		t.Fatal("external wheel reaped nothing; buffer built a private wheel?")
	}
	if h, _ := b.store.cacheSizes(); h != 0 {
		t.Fatal("record not reclaimed through the shared wheel")
	}
}

// TestPendingEntryRecycled: watch entries come from the freelist once warm —
// satisfy-then-re-expect must reuse the same entry object, and a stale
// deadline for the old incarnation must not fire against the new one.
func TestPendingEntryRecycled(t *testing.T) {
	k := sim.New(1)
	b, acc, _ := newBuffer(k, Config{Timeout: time.Second, CacheTTL: 2 * time.Second})
	b.Expect(5, key(1, 1))
	first, _ := b.store.pending.Get(pendingKey(b.Intern(5), key(1, 1)))
	b.MarkForwarded(5, key(1, 1)) // satisfied: entry recycled
	k.RunFor(3 * time.Second)     // forwarded suppression expires

	b.Expect(5, key(1, 2))
	second, _ := b.store.pending.Get(pendingKey(b.Intern(5), key(1, 2)))
	if first != second {
		t.Fatal("freelist miss: satisfied entry was not reused")
	}
	k.RunFor(10 * time.Second)
	if len(*acc) != 1 {
		t.Fatalf("%d accusations, want exactly 1 (the second expectation's drop)", len(*acc))
	}
	if (*acc)[0].Key != key(1, 2) {
		t.Fatalf("accusation for %v, want the live expectation's key", (*acc)[0].Key)
	}
}

// TestRecordHeardAllocsWarm pins the per-overheard-frame cost: with warm
// maps and wheel, recording a recurring (sender, key) pair must stay at or
// under one allocation (the pin tolerates map-internal churn).
func TestRecordHeardAllocsWarm(t *testing.T) {
	k := sim.New(1)
	b, _, _ := newBuffer(k, Config{Timeout: 100 * time.Millisecond, CacheTTL: time.Second})
	for i := uint64(0); i < 64; i++ {
		b.RecordHeard(3, key(1, i%8))
		k.RunFor(300 * time.Millisecond)
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		b.RecordHeard(3, key(1, i%8))
		i++
		k.RunFor(300 * time.Millisecond)
	})
	if allocs > 1 {
		t.Fatalf("warm RecordHeard allocates %.1f objects/op, want <= 1", allocs)
	}
}

// TestExpectAllocsWarm pins the per-guarded-forwarder cost: entry from the
// freelist, prebound dispatch, no closure — at most one allocation for map
// churn. The DropFilter suppresses the expiry accusations so the pin
// measures the watch machinery, not the MalC bookkeeping.
func TestExpectAllocsWarm(t *testing.T) {
	k := sim.New(1)
	cfg := Config{
		Timeout:    100 * time.Millisecond,
		CacheTTL:   time.Second,
		DropFilter: func(field.NodeID, packet.Key) bool { return true },
	}
	b := New(k, cfg, nil, nil)
	for i := uint64(0); i < 64; i++ {
		b.Expect(5, key(1, i%8))
		k.RunFor(300 * time.Millisecond) // entry expires (filtered), recycles
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		b.Expect(5, key(1, i%8))
		i++
		k.RunFor(300 * time.Millisecond)
	})
	if allocs > 1 {
		t.Fatalf("warm Expect allocates %.1f objects/op, want <= 1", allocs)
	}
}

// TestFreePendingBounded churns far more watch entries through a buffer
// than the freelist cap and checks the retained freelist never exceeds it:
// a traffic spike must not pin its high-water mark in memory forever.
func TestFreePendingBounded(t *testing.T) {
	k := sim.New(9)
	b, _, _ := newBuffer(k, Config{Timeout: time.Second, CacheTTL: 2 * time.Second})
	for i := 0; i < 4*freePendingCap; i++ {
		b.Expect(5, key(1, uint64(i)))
	}
	k.RunFor(time.Minute) // every watch expires and recycles its entry
	if got := len(b.freePending); got > freePendingCap {
		t.Fatalf("freelist retains %d entries, cap is %d", got, freePendingCap)
	}
}
