package flatmap

import (
	"math/rand"
	"testing"
	"time"
)

// randKey draws a key with a nonzero Lo from a small space so collisions,
// replacements and deletions of present keys actually happen.
func randKey(rng *rand.Rand) Key {
	return Key{
		Hi: uint64(rng.Intn(64)),
		Lo: uint64(rng.Intn(256))<<8 | 1,
	}
}

// TestTableMatchesMap drives random Put/Delete/Get/Ref/Upsert against a
// reference map.
func TestTableMatchesMap(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab Table[int]
		ref := make(map[Key]int)
		for op := 0; op < 4000; op++ {
			k := randKey(rng)
			switch rng.Intn(5) {
			case 0:
				v := rng.Int()
				tab.Put(k, v)
				ref[k] = v
			case 1:
				got := tab.Delete(k)
				_, want := ref[k]
				if got != want {
					t.Fatalf("seed %d op %d: Delete(%v) = %v, want %v", seed, op, k, got, want)
				}
				delete(ref, k)
			case 2:
				got, ok := tab.Get(k)
				want, wok := ref[k]
				if ok != wok || got != want {
					t.Fatalf("seed %d op %d: Get(%v) = %v,%v want %v,%v", seed, op, k, got, ok, want, wok)
				}
			case 3:
				p := tab.Ref(k)
				want, wok := ref[k]
				if (p != nil) != wok || (wok && *p != want) {
					t.Fatalf("seed %d op %d: Ref(%v) = %v, want %v,%v", seed, op, k, p, want, wok)
				}
			case 4:
				// Read-modify-write: an absent key starts from zero.
				p := tab.Upsert(k)
				if *p != ref[k] {
					t.Fatalf("seed %d op %d: Upsert(%v) reads %v, want %v", seed, op, k, *p, ref[k])
				}
				*p++
				ref[k]++
			}
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, tab.Len(), len(ref))
			}
		}
		// Every reference entry must be retrievable at the end.
		for k, want := range ref {
			if got, ok := tab.Get(k); !ok || got != want {
				t.Fatalf("seed %d: final Get(%v) = %v,%v want %v,true", seed, k, got, ok, want)
			}
		}
	}
}

// TestExpirySweepExact checks that one Sweep removes exactly the expired
// entries — none escape via backward shifts — and that capacity shrinks
// back after a burst.
func TestExpirySweepExact(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		var tab ExpiryTable
		ref := make(map[Key]time.Duration)
		for i := 0; i < 3000; i++ {
			k := Key{Hi: uint64(rng.Intn(1 << 16)), Lo: uint64(i)<<8 | 1}
			exp := time.Duration(rng.Intn(1000))
			tab.Put(k, exp)
			ref[k] = exp
		}
		peak := tab.Cap()
		now := time.Duration(500)
		wantRemoved := 0
		for k, exp := range ref {
			if exp <= now {
				wantRemoved++
				delete(ref, k)
			}
		}
		if removed := tab.Sweep(now); removed != wantRemoved {
			t.Fatalf("seed %d: Sweep removed %d, want %d", seed, removed, wantRemoved)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("seed %d: post-sweep Len = %d, want %d", seed, tab.Len(), len(ref))
		}
		for k, exp := range ref {
			got, ok := tab.Get(k)
			if !ok || got != exp {
				t.Fatalf("seed %d: survivor %v lost (got %v, %v)", seed, k, got, ok)
			}
		}
		// Sweep everything: the table must hand its capacity back.
		tab.Sweep(time.Duration(2000))
		if tab.Len() != 0 {
			t.Fatalf("seed %d: final Len = %d, want 0", seed, tab.Len())
		}
		if tab.Cap() >= peak {
			t.Fatalf("seed %d: capacity did not shrink (peak %d, now %d)", seed, peak, tab.Cap())
		}
	}
}

// TestLiveBoundary pins the liveness convention: alive strictly before the
// stored expiry, dead at it.
func TestLiveBoundary(t *testing.T) {
	var tab ExpiryTable
	k := PackKey(7, 42, 3)
	tab.Put(k, 100)
	if !tab.Live(k, 99) {
		t.Fatal("expected live just before expiry")
	}
	if tab.Live(k, 100) {
		t.Fatal("expected dead at expiry instant")
	}
}

// TestPackIdxKeyDistinct spot-checks that distinct (idx, origin, seq, type)
// tuples map to distinct keys and never produce the empty sentinel.
func TestPackIdxKeyDistinct(t *testing.T) {
	seen := make(map[Key]bool)
	for idx := int32(0); idx < 4; idx++ {
		for origin := uint32(0); origin < 4; origin++ {
			for seq := uint64(0); seq < 4; seq++ {
				for _, typ := range []uint8{1, 5, 9} {
					k := PackIdxKey(idx, origin, seq, typ)
					if k.zero() {
						t.Fatalf("packed key is the empty sentinel: %+v", k)
					}
					if seen[k] {
						t.Fatalf("collision at idx=%d origin=%d seq=%d typ=%d", idx, origin, seq, typ)
					}
					seen[k] = true
				}
			}
		}
	}
}
