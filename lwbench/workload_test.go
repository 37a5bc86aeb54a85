package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"liteworp"
)

func TestFingerprintMismatchCountsAsFailed(t *testing.T) {
	s := &scenarioRuns{params: liteworp.Params{Seed: 7}}
	ok := rep{fp: fingerprint{"sim.events": 100, "data.delivered": 9}}
	if why := s.add(ok, nil); why != "" {
		t.Fatalf("first repetition failed: %s", why)
	}
	if why := s.add(rep{fp: fingerprint{"sim.events": 100, "data.delivered": 9}}, nil); why != "" {
		t.Fatalf("identical repetition failed: %s", why)
	}
	for _, bad := range []fingerprint{
		{"sim.events": 101, "data.delivered": 9},
		{"sim.events": 100},
		{"sim.events": 100, "data.delivered": 9, "watch.drops": 0},
	} {
		why := s.add(rep{fp: bad}, nil)
		if !strings.Contains(why, "fingerprint differs") {
			t.Errorf("fingerprint %v: failure %q, want a mismatch", bad, why)
		}
	}
	if why := s.add(rep{}, errors.New("boom")); !strings.Contains(why, "boom") {
		t.Errorf("erroring repetition: failure %q", why)
	}
	if len(s.reps) != 2 {
		t.Errorf("kept %d repetitions, want the 2 that agree", len(s.reps))
	}
}

func TestGuardedRecoversPanic(t *testing.T) {
	_, err := guarded(func() int { panic("probe exploded") })
	if err == nil || !strings.Contains(err.Error(), "probe exploded") {
		t.Fatalf("err = %v, want the panic as an error", err)
	}
}

func TestScenarioSeeds(t *testing.T) {
	s := scenarioSeeds(5, 3)
	if len(s) != 3 || s[0] != 5 || s[1] == s[2] || s[1] == 5 {
		t.Fatalf("scenarioSeeds(5, 3) = %v", s)
	}
}

// TestSmokeWorkload runs a tiny monitored workload through the whole
// pipeline, traced: repetitions must agree, and every summary metric must
// be produced with a finite value.
func TestSmokeWorkload(t *testing.T) {
	defer func(s float64) { probeScale = s }(probeScale)
	probeScale = 0.001
	w := workload{
		name: "smoke", scenarios: 2, monitored: true,
		params: func(seed int64) liteworp.Params {
			p := liteworp.DefaultParams()
			p.Seed = seed
			p.NumNodes = 20
			p.Duration = 60 * time.Second
			return p
		},
	}
	rec, err := runWorkload(w, 3, time.Millisecond, true, environment())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted != 2*2+2 {
		t.Fatalf("correct=%v attempted=%d failed=%d failures=%v", rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
	}
	for _, n := range endToEnd {
		if _, ok := rec.EndToEnd[n]; !ok {
			t.Errorf("end-to-end metric %s missing", n)
		}
	}
	for _, n := range perLayer {
		if _, ok := rec.PerLayer[n]; !ok {
			t.Errorf("per-layer metric %s missing", n)
		}
	}
	for _, n := range []string{"run_s", "cpu_s", "setup_s", "live_bytes_per_node"} {
		if rec.EndToEnd[n].Value <= 0 {
			t.Errorf("%s = %v, want positive", n, rec.EndToEnd[n].Value)
		}
	}
	if _, ok := rec.EndToEnd["isolation_latency_s"]; !ok {
		t.Error("monitored workload lacks isolation_latency_s")
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which benchmark runners read,
// in step with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, command %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []m, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if g.Name != want[i] || g.Unit != unitOf(want[i]) {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], command %s [%s]", kind, i, g.Name, g.Unit, want[i], unitOf(want[i]))
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
