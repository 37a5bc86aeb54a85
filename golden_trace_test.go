package liteworp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"
)

// traceHash runs one scenario with tracing enabled and returns the SHA-256
// of the full JSONL trace — every transmission (rx/loss/tunnel), accusation,
// isolation and route record in order — plus the record count.
func traceHash(t *testing.T, mutate func(*Params)) (string, int) {
	t.Helper()
	p := DefaultParams()
	if mutate != nil {
		mutate(&p)
	}
	s, err := NewScenario(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	s.EnableTrace(&buf)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), bytes.Count(buf.Bytes(), []byte{'\n'})
}

// TestGoldenTraceBitIdentical pins the protocol-observable behavior of the
// simulator: the byte-exact transmission/accusation/isolation trace per
// seed. This is the invariant the performance work must preserve — kernel
// event counts (Kernel.Processed()) are allowed to change when housekeeping
// timers are restructured (e.g. per-record expiry timers collapsing onto a
// shared wheel), but the trace a run emits must not move by a single byte.
//
// If a protocol-behavior change is intentional, re-pin the hashes with an
// explanation in the commit (mirroring goldenWant in golden_test.go).
func TestGoldenTraceBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	cases := []struct {
		name     string
		mutate   func(*Params)
		wantHash string
		wantMin  int // sanity floor on record count
	}{
		{
			name: "protected-oob-40",
			mutate: func(p *Params) {
				p.NumNodes = 40
				p.Seed = 20250704
				p.Duration = 150 * time.Second
			},
			wantHash: goldenTraceProtected,
			wantMin:  10000,
		},
		{
			name: "baseline-no-liteworp-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 99
				p.Duration = 120 * time.Second
				p.Liteworp = false
			},
			wantHash: goldenTraceBaseline,
			wantMin:  5000,
		},
		{
			name: "hopbyhop-rerr-30",
			mutate: func(p *Params) {
				p.NumNodes = 30
				p.Seed = 4242
				p.Duration = 120 * time.Second
				p.Routing = RoutingHopByHop
				p.RouteErrors = true
			},
			wantHash: goldenTraceHopByHop,
			wantMin:  5000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hash, records := traceHash(t, tc.mutate)
			if records < tc.wantMin {
				t.Fatalf("trace suspiciously short: %d records, want >= %d", records, tc.wantMin)
			}
			t.Logf("%s: %d records, sha256 %s", tc.name, records, hash)
			if hash != tc.wantHash {
				t.Errorf("trace drifted:\n got  %s\n want %s\n"+
					"The transmission/accusation/isolation trace is pinned per seed; "+
					"if this change is intentional, update the golden hash and document why.",
					hash, tc.wantHash)
			}
		})
	}
}

// Golden trace hashes (SHA-256 over the full JSONL trace). Captured before
// the event-pressure rework (PR 5) and required to survive it unchanged.
const (
	goldenTraceProtected = "84a36cfdbce0dd4434d687da8d24786af2ed57dec101c7fff801aec7389cca99"
	goldenTraceBaseline  = "31ec827aa01106e432da1aa2aaa477a55f3ec982df7d2cbb776d32f0dba4b50a"
	goldenTraceHopByHop  = "af8f8c52bc5daf656f07bc33c626f85d7a8f22159fca2b0d5ac53de282b6c3f8"
)

// TestGoldenTraceBackendInvariant runs the protected golden case on every
// selectable event-queue backend and requires the identical pinned hash:
// the queue choice must be a pure performance knob, invisible in the
// trace.
func TestGoldenTraceBackendInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	for _, queue := range []string{"calendar", "heap"} {
		t.Run("queue-"+queue, func(t *testing.T) {
			hash, _ := traceHash(t, func(p *Params) {
				p.NumNodes = 40
				p.Seed = 20250704
				p.Duration = 150 * time.Second
				p.EventQueue = queue
			})
			if hash != goldenTraceProtected {
				t.Errorf("backend %q drifted from the pinned trace:\n got  %s\n want %s",
					queue, hash, goldenTraceProtected)
			}
		})
	}
}
