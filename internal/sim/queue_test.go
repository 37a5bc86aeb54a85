package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// queueScript is a deterministic workload of scheduling operations replayed
// identically against kernels on different queue backends. Every op draws
// from the script's own rand stream, never the kernel's, so the kernel RNG
// stays byte-for-byte aligned between replays.
type queueScript struct {
	seed int64
	ops  int
}

// replay drives the script through a fresh kernel on the given queue and
// returns the observed firing trace: one "<id>@<virtual time>" entry per
// fired event, in firing order. The workload deliberately mixes:
//
//   - Post (handle-free), After, and At scheduling
//   - bursts at an identical timestamp (FIFO tie-break coverage)
//   - cancellations through live timers, repeated cancels, and stale
//     handles kept across firing (generation-fence coverage)
//   - interleaved Step calls so pushes land both before and after pops,
//     exercising the calendar cursor-rewind and resize paths
func (s queueScript) replay(t testing.TB, q Queue) []string {
	t.Helper()
	k := NewWithQueue(1, q)
	rng := rand.New(rand.NewSource(s.seed))
	var trace []string
	var timers []Timer
	record := func(id int) Event {
		return func() { trace = append(trace, fmt.Sprintf("%d@%d", id, k.Now())) }
	}
	for i := 0; i < s.ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // Post at a random near-future offset
			k.Post(time.Duration(rng.Intn(5000))*time.Microsecond, record(i))
		case 3, 4: // After with a cancellable handle
			timers = append(timers, k.After(time.Duration(rng.Intn(5000))*time.Microsecond, record(i)))
		case 5: // At, sometimes in the past (clamps to now)
			at := k.Now() + time.Duration(rng.Intn(2000)-500)*time.Microsecond
			timers = append(timers, k.At(at, record(i)))
		case 6: // same-timestamp burst: FIFO tie-break must hold
			at := k.Now() + time.Duration(rng.Intn(1000))*time.Microsecond
			for j := 0; j < 3; j++ {
				k.At(at, record(i*10+j))
			}
		case 7: // cancel a random outstanding handle (possibly stale/fired)
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Cancel()
			}
		case 8: // far-future straggler, keeps the queue sparse at the tail
			k.Post(time.Duration(rng.Intn(60))*time.Second, record(i))
		case 9: // drain a few events so pushes interleave with pops
			for j := rng.Intn(4); j > 0; j-- {
				k.Step()
			}
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return trace
}

// TestQueueEquivalenceRandomized replays randomized workloads through the
// heap and calendar backends and requires bit-identical firing traces —
// same events, same order, same virtual timestamps. This is the property
// the golden trace hashes rest on, checked at the queue seam directly.
func TestQueueEquivalenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := queueScript{seed: seed, ops: 400}
		heapTrace := s.replay(t, NewHeapQueue())
		calTrace := s.replay(t, NewCalendarQueue())
		if len(heapTrace) != len(calTrace) {
			t.Fatalf("seed %d: heap fired %d events, calendar %d", seed, len(heapTrace), len(calTrace))
		}
		for i := range heapTrace {
			if heapTrace[i] != calTrace[i] {
				t.Fatalf("seed %d: traces diverge at event %d: heap %q, calendar %q",
					seed, i, heapTrace[i], calTrace[i])
			}
		}
	}
}

// FuzzQueueEquivalence is the fuzzing entry for the same property: any
// (seed, ops) workload must fire identically on both backends.
func FuzzQueueEquivalence(f *testing.F) {
	f.Add(int64(1), 50)
	f.Add(int64(42), 300)
	f.Add(int64(-7), 997)
	f.Fuzz(func(t *testing.T, seed int64, ops int) {
		if ops < 0 || ops > 2000 {
			t.Skip()
		}
		s := queueScript{seed: seed, ops: ops}
		heapTrace := s.replay(t, NewHeapQueue())
		calTrace := s.replay(t, NewCalendarQueue())
		if len(heapTrace) != len(calTrace) {
			t.Fatalf("heap fired %d events, calendar %d", len(heapTrace), len(calTrace))
		}
		for i := range heapTrace {
			if heapTrace[i] != calTrace[i] {
				t.Fatalf("traces diverge at event %d: heap %q, calendar %q", i, heapTrace[i], calTrace[i])
			}
		}
	})
}

// TestPendingAccountingAcrossBackends cross-checks the live-count invariant
// Pending() == live scheduled events on both backends while lazy reaping,
// compaction, and (for the calendar) resize all trigger. PendingRaw may lag
// behind (cancelled items awaiting reap) but must never undercount Pending.
func TestPendingAccountingAcrossBackends(t *testing.T) {
	for _, kind := range QueueKinds() {
		t.Run(kind, func(t *testing.T) {
			k := NewWithQueue(7, NewQueue(kind))
			if got := k.QueueKind(); got != kind {
				t.Fatalf("QueueKind() = %q, want %q", got, kind)
			}
			const n = 600
			timers := make([]Timer, 0, n)
			// Spread far enough apart that the calendar queue's density
			// estimate forces at least one grow and later a shrink.
			for i := 0; i < n; i++ {
				timers = append(timers, k.After(time.Duration(i)*time.Millisecond, func() {}))
			}
			if got := k.Pending(); got != n {
				t.Fatalf("Pending after %d schedules = %d", n, got)
			}
			// Cancel every third timer; compaction will fire mid-way (the
			// threshold is 64 cancelled and cancelled*2 > size).
			cancelled := 0
			for i := 0; i < n; i += 3 {
				if timers[i].Cancel() {
					cancelled++
				}
			}
			if got, want := k.Pending(), n-cancelled; got != want {
				t.Fatalf("Pending after cancels = %d, want %d", got, want)
			}
			if k.PendingRaw() < k.Pending() {
				t.Fatalf("PendingRaw %d < Pending %d", k.PendingRaw(), k.Pending())
			}
			// Drain with interleaved refills so pops, lazy pop-side reaps,
			// and push-side resizes all run under accounting checks.
			fired := 0
			for i := 0; i < 200; i++ {
				before := k.Pending()
				if !k.Step() {
					t.Fatalf("queue drained early at step %d", i)
				}
				fired++
				if got := k.Pending(); got != before-1 {
					t.Fatalf("step %d: Pending %d -> %d, want %d", i, before, got, before-1)
				}
				if k.PendingRaw() < k.Pending() {
					t.Fatalf("step %d: PendingRaw %d < Pending %d", i, k.PendingRaw(), k.Pending())
				}
			}
			live := k.Pending()
			for k.Step() {
				fired++
			}
			if got, want := fired, n-cancelled; got != want {
				t.Fatalf("fired %d events, want %d", got, want)
			}
			if live != n-cancelled-200 {
				t.Fatalf("mid-drain Pending = %d, want %d", live, n-cancelled-200)
			}
			if k.Pending() != 0 || k.PendingRaw() != 0 {
				t.Fatalf("drained kernel reports Pending=%d PendingRaw=%d", k.Pending(), k.PendingRaw())
			}
		})
	}
}

// TestQueueFactory pins the selector surface: known kinds construct their
// backend, the empty string selects the default, unknown kinds are nil.
func TestQueueFactory(t *testing.T) {
	if q := NewQueue(""); q == nil || q.kind() != QueueCalendar {
		t.Errorf(`NewQueue("") = %v, want calendar`, q)
	}
	for _, kind := range QueueKinds() {
		if !KnownQueue(kind) {
			t.Errorf("KnownQueue(%q) = false", kind)
		}
		q := NewQueue(kind)
		if q == nil || q.kind() != kind {
			t.Errorf("NewQueue(%q) = %v", kind, q)
		}
	}
	if KnownQueue("splay") {
		t.Error(`KnownQueue("splay") = true`)
	}
	if q := NewQueue("splay"); q != nil {
		t.Errorf(`NewQueue("splay") = %v, want nil`, q)
	}
	if k := NewWithQueue(1, nil); k.QueueKind() != QueueCalendar {
		t.Errorf("NewWithQueue(nil) kind = %q, want calendar", k.QueueKind())
	}
}

// TestCalendarResizeRoundTrip forces the ring through grow and shrink and
// checks pop order survives: push a large spread, drain half, push a
// trickle, drain the rest — all against a reference heap kernel.
func TestCalendarResizeRoundTrip(t *testing.T) {
	s := queueScript{seed: 424242, ops: 1500}
	heapTrace := s.replay(t, NewHeapQueue())
	calTrace := s.replay(t, NewCalendarQueue())
	if len(heapTrace) == 0 {
		t.Fatal("workload fired no events")
	}
	for i := range heapTrace {
		if heapTrace[i] != calTrace[i] {
			t.Fatalf("traces diverge at event %d: heap %q, calendar %q", i, heapTrace[i], calTrace[i])
		}
	}
}

// TestCalendarSparseFarFuture covers the direct-search fallback: a handful
// of events scattered over minutes of virtual time (thousands of empty
// bucket windows apart) must still pop in (at, seq) order.
func TestCalendarSparseFarFuture(t *testing.T) {
	k := NewWithQueue(3, NewCalendarQueue())
	var got []int
	for i, d := range []time.Duration{
		45 * time.Minute, 3 * time.Second, 9 * time.Hour, 10 * time.Microsecond, 2 * time.Minute,
	} {
		id := i
		k.Post(d, func() { got = append(got, id) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 4, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

// TestCalendarReleasesBurstStorage pins the drain-time release policy: a
// bucket that a same-instant burst grew past cqBucketKeepCap gives the
// storage back once it drains, so a ring sized for a standing load does
// not keep every burst's peak. A background of far-future events holds
// the ring at its grown size (no shrink-resize reseeds the buckets) while
// bursts of 1000 same-instant events land on many different buckets and
// drain; afterwards total bucket capacity must stay within a small
// multiple of the seed capacity the ring starts every bucket with.
func TestCalendarReleasesBurstStorage(t *testing.T) {
	const background, burst, bursts = 600, 1000, 32
	k := NewWithQueue(1, NewCalendarQueue())
	q := k.queue.(*calendarQueue)
	for i := 0; i < background; i++ {
		k.Post(time.Hour+time.Duration(i)*time.Millisecond, func() {})
	}
	fired := 0
	for r := 0; r < bursts; r++ {
		for i := 0; i < burst; i++ {
			k.Post(time.Second, func() { fired++ })
		}
		if err := k.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if fired != burst*bursts || q.size() != background {
		t.Fatalf("fired %d of %d burst events, %d queued (want %d)", fired, burst*bursts, q.size(), background)
	}
	total := 0
	for i := range q.buckets {
		total += cap(q.buckets[i].items)
	}
	if limit := 2 * cqBucketSeedCap * len(q.buckets); total > limit {
		t.Fatalf("%d buckets hold %d slots for %d queued events after the bursts drained, limit %d",
			len(q.buckets), total, q.size(), limit)
	}
}
