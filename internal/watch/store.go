package watch

import (
	"time"

	"liteworp/internal/flatmap"
	"liteworp/internal/packet"
)

// store holds the buffer's collections. The pending-watch table and the
// two heard caches live in open-addressed tables (struct-of-arrays, linear
// probing, backward-shift deletion — see internal/flatmap), and MalC
// records sit in a slice indexed directly by nbrIdx. Keys pack the watched
// node's dense index and the packet identity into 16 bytes, so probes
// touch two contiguous cache lines instead of chasing map buckets.
//
// There is no separate already-forwarded cache: a forward is an overheard
// transmission, so MarkForwarded records it in heardAt, and Expect's
// duplicate-forward check reads heardAt. The only heard-without-forward
// records are the host's own sends, and nothing expects the host itself to
// forward.
//
// The map-based reference model in refmodel_test.go is the differential
// ground truth for every operation here.
type store struct {
	pending flatmap.Table[*pendingEntry]
	heardAt flatmap.ExpiryTable
	anyAt   flatmap.Table[anyRecord]

	// malc is dense by nbrIdx; malcUsed marks live records so a swept
	// (reset-in-place) slot is indistinguishable from a never-used one.
	malcs    []malcRecord
	malcUsed []bool
}

// coverBits is how many low nbrIdx values an anyRecord's coverage mask
// tracks; higher indexes always take the exact path.
const coverBits = 64

// anyRecord is the per-packet heard-any record plus its coverage mask.
//
// The mask is a one-way hint for the REQ flood loop: bit i set with
// maskLive(now) guarantees that Expect on (nbrIdx i, key) would return
// false and change nothing, so the loop may skip the call. A bit is set
// when i is marked forwarded (heardAt keeps it live until at least
// fwdExp) or an expectation on i is armed (pending until it is matched,
// which is a forward, or fires, which clears the bit). Clearing a bit, or
// the whole mask, is always safe — it only sends a neighbor down the exact
// path.
type anyRecord struct {
	exp time.Duration // heard-any expiry
	// fwdExp is the earliest expiry among the forwards that set a bit
	// since the mask last reset; 0 when none did (arm bits alone never
	// lapse).
	fwdExp time.Duration
	mask   uint64
}

// maskLive reports whether the mask still holds at now.
func (r *anyRecord) maskLive(now time.Duration) bool {
	return r.fwdExp == 0 || now < r.fwdExp
}

// setBit sets bit i, first resetting a mask that has lapsed.
func (r *anyRecord) setBit(i int32, now time.Duration) {
	if !r.maskLive(now) {
		r.mask, r.fwdExp = 0, 0
	}
	r.mask |= 1 << uint32(i)
}

// pendingKey packs (forwarder nbrIdx, packet identity). packet.Type is in
// [1,9], so a live key always has Lo != 0, the table's empty sentinel.
func pendingKey(idx int32, key packet.Key) flatmap.Key {
	return flatmap.PackIdxKey(idx, uint32(key.Origin), key.Seq, uint8(key.Type))
}

func anyKey(key packet.Key) flatmap.Key {
	return flatmap.PackKey(uint32(key.Origin), key.Seq, uint8(key.Type))
}

// recordHeard stores both heard records and returns the heard-any record
// (valid until the next anyAt write).
func (s *store) recordHeard(sidx int32, key packet.Key, exp time.Duration) *anyRecord {
	s.heardAt.Put(pendingKey(sidx, key), exp)
	r := s.anyAt.Upsert(anyKey(key))
	r.exp = exp
	return r
}

// markForwarded records fidx's forward of key as heard until exp, which
// makes Expect a no-op on fidx until then, and sets its coverage bit with
// fwdExp bounded by exp.
func (s *store) markForwarded(fidx int32, key packet.Key, exp, now time.Duration) {
	r := s.recordHeard(fidx, key, exp)
	if fidx >= coverBits {
		return
	}
	r.setBit(fidx, now)
	if r.fwdExp == 0 || exp < r.fwdExp {
		r.fwdExp = exp
	}
}

func (s *store) heardAny(key packet.Key, now time.Duration) bool {
	r := s.anyAt.Ref(anyKey(key))
	return r != nil && live(r.exp, now)
}

// coverage returns key's live coverage mask (0 without a record).
func (s *store) coverage(key packet.Key, now time.Duration) uint64 {
	r := s.anyAt.Ref(anyKey(key))
	if r == nil || !r.maskLive(now) {
		return 0
	}
	return r.mask
}

// coverArmed sets bit fidx of key's mask for a just-armed expectation,
// when key has a heard-any record.
func (s *store) coverArmed(fidx int32, key packet.Key, now time.Duration) {
	if fidx >= coverBits {
		return
	}
	if r := s.anyAt.Ref(anyKey(key)); r != nil {
		r.setBit(fidx, now)
	}
}

// uncover clears bit fidx of key's mask: its expectation fired.
func (s *store) uncover(fidx int32, key packet.Key) {
	if fidx >= coverBits {
		return
	}
	if r := s.anyAt.Ref(anyKey(key)); r != nil {
		r.mask &^= 1 << uint32(fidx)
	}
}

func (s *store) malc(aidx int32) *malcRecord {
	if int(aidx) >= len(s.malcs) || !s.malcUsed[aidx] {
		return nil
	}
	return &s.malcs[aidx]
}

func (s *store) ensureMalc(aidx int32) *malcRecord {
	for int(aidx) >= len(s.malcs) {
		s.malcs = append(s.malcs, malcRecord{})
		s.malcUsed = append(s.malcUsed, false)
	}
	s.malcUsed[aidx] = true
	return &s.malcs[aidx]
}

// sweepCaches reaps expired heard and heard-any records. A heard-any
// record outlives every bit of its mask that a forward set (fwdExp <= exp),
// so the mask needs no sweep of its own.
func (s *store) sweepCaches(now time.Duration) int {
	return s.heardAt.Sweep(now) + s.anyAt.SweepFunc(func(r *anyRecord) bool { return r.exp <= now })
}

// sweepMalc resets records whose newest observation fell strictly out of
// the window without firing. Reset-in-place keeps the slices' capacity for
// the slot's next incarnation; slot order makes the pass deterministic.
func (s *store) sweepMalc(now, window time.Duration) int {
	n := 0
	for i := range s.malcs {
		rec := &s.malcs[i]
		if !s.malcUsed[i] || rec.fired || rec.latest+window >= now {
			continue
		}
		rec.times = rec.times[:0]
		rec.incs = rec.incs[:0]
		rec.latest = 0
		s.malcUsed[i] = false
		n++
	}
	return n
}
