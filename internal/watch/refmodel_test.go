package watch

import (
	"time"

	"liteworp/internal/field"
	"liteworp/internal/packet"
	"liteworp/internal/sim"
)

// refKey keys the reference model's per-node collections: the watched
// node's ID plus the packet identity.
type refKey struct {
	id  field.NodeID
	key packet.Key
}

// refBuffer is the map-based reference model of Buffer, the ground truth
// the differential suite in store_test.go replays scripts against. It
// keeps the buffer's semantics in their plainest form: Go maps keyed by
// NodeID, one kernel timer per watch deadline, no interning, no freelist,
// no expiry wheel and no coverage mask. Expired records are never reaped:
// readers check expiry themselves, which is exactly why the production
// buffer's sweeps are unobservable.
type refBuffer struct {
	kernel      *sim.Kernel
	cfg         Config
	pending     map[refKey]uint64 // arm serial, to tell a stale deadline
	serial      uint64
	heardAt     map[refKey]time.Duration     // expiry per (sender, key)
	anyAt       map[packet.Key]time.Duration // expiry per key, any sender
	malcs       map[field.NodeID]*refMalc
	onAccuse    func(Accusation)
	onThreshold func(field.NodeID)
	stats       Stats
}

type refMalc struct {
	times []time.Duration
	incs  []int
	fired bool
}

func newRefBuffer(k *sim.Kernel, cfg Config, onAccuse func(Accusation), onThreshold func(field.NodeID)) *refBuffer {
	return &refBuffer{
		kernel:      k,
		cfg:         cfg.withDefaults(),
		pending:     make(map[refKey]uint64),
		heardAt:     make(map[refKey]time.Duration),
		anyAt:       make(map[packet.Key]time.Duration),
		malcs:       make(map[field.NodeID]*refMalc),
		onAccuse:    onAccuse,
		onThreshold: onThreshold,
	}
}

func (r *refBuffer) Len() int     { return len(r.pending) }
func (r *refBuffer) Stats() Stats { return r.stats }

func (r *refBuffer) RecordHeard(sender field.NodeID, key packet.Key) {
	exp := r.kernel.Now() + r.cfg.CacheTTL
	r.heardAt[refKey{sender, key}] = exp
	r.anyAt[key] = exp
}

func (r *refBuffer) Heard(sender field.NodeID, key packet.Key) bool {
	exp, ok := r.heardAt[refKey{sender, key}]
	return ok && live(exp, r.kernel.Now())
}

func (r *refBuffer) HeardAny(key packet.Key) bool {
	exp, ok := r.anyAt[key]
	return ok && live(exp, r.kernel.Now())
}

func (r *refBuffer) Watching(forwarder field.NodeID, key packet.Key) bool {
	_, ok := r.pending[refKey{forwarder, key}]
	return ok
}

// wouldExpect reports whether Expect(forwarder, key) would arm a watch,
// without arming it.
func (r *refBuffer) wouldExpect(forwarder field.NodeID, key packet.Key) bool {
	return !r.Watching(forwarder, key) && !r.Heard(forwarder, key)
}

func (r *refBuffer) Expect(forwarder field.NodeID, key packet.Key) bool {
	if !r.wouldExpect(forwarder, key) {
		return false
	}
	pk := refKey{forwarder, key}
	r.serial++
	serial := r.serial
	r.pending[pk] = serial
	r.kernel.After(r.cfg.Timeout, func() {
		if cur, ok := r.pending[pk]; !ok || cur != serial {
			return // satisfied, possibly re-armed since
		}
		delete(r.pending, pk)
		r.stats.Drops++
		r.accuse(forwarder, ReasonDrop, key, r.cfg.DropIncrement)
	})
	r.stats.Expectations++
	r.stats.PeakEntries = max(r.stats.PeakEntries, len(r.pending))
	return true
}

func (r *refBuffer) MarkForwarded(forwarder field.NodeID, key packet.Key) bool {
	r.RecordHeard(forwarder, key)
	pk := refKey{forwarder, key}
	if _, ok := r.pending[pk]; !ok {
		return false
	}
	delete(r.pending, pk)
	r.stats.Matches++
	return true
}

func (r *refBuffer) AccuseFabrication(accused field.NodeID, key packet.Key) {
	r.stats.Fabrications++
	r.accuse(accused, ReasonFabrication, key, r.cfg.FabricationIncrement)
}

func (r *refBuffer) accuse(accused field.NodeID, reason Reason, key packet.Key, inc int) {
	rec, ok := r.malcs[accused]
	if !ok {
		rec = &refMalc{}
		r.malcs[accused] = rec
	}
	now := r.kernel.Now()
	rec.times = append(rec.times, now)
	rec.incs = append(rec.incs, inc)
	val := r.windowed(rec)
	fire := !rec.fired && val >= r.cfg.Threshold
	rec.fired = rec.fired || fire
	r.onAccuse(Accusation{Accused: accused, Reason: reason, MalC: val, Key: key, At: now})
	if fire {
		r.stats.ThresholdHits++
		r.onThreshold(accused)
	}
}

// windowed sums the increments no older than Window.
func (r *refBuffer) windowed(rec *refMalc) int {
	cutoff := r.kernel.Now() - r.cfg.Window
	total := 0
	for i, t := range rec.times {
		if t >= cutoff {
			total += rec.incs[i]
		}
	}
	return total
}

func (r *refBuffer) MalC(id field.NodeID) int {
	if rec, ok := r.malcs[id]; ok {
		return r.windowed(rec)
	}
	return 0
}

func (r *refBuffer) ThresholdFired(id field.NodeID) bool {
	rec, ok := r.malcs[id]
	return ok && rec.fired
}
