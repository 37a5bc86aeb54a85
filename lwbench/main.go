// Command lwbench is the repository's benchmark. It simulates whole
// LITEWORP scenarios through the public liteworp API, from NewScenario
// through discovery, traffic, the wormhole, detection and isolation, and
// reports host cost (set-up and run time, CPU, retained memory) beside the
// simulated outcomes and per-layer counters. Every repetition of a scenario
// must reproduce the same fingerprint; one that does not counts as failed.
//
//	go run . --workload lifecycle --seed 1 --seconds 30 --trace 0
//	go run . --workload all --trace 1
//
// --trace 1 adds one profiled repetition per workload, whose CPU and heap
// profiles are attributed to the liteworp/internal layers, and times
// direct calls into the layer packages (probe.* metrics).
//
// Every record goes to standard output as indented JSON; the last line is
// a one-line summary {"correct", "attempted", "failed", "metrics"} holding
// the metrics BENCHMARK.json lists (end-to-end ones untraced, per-layer
// ones traced).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"liteworp"
)

// endToEnd and perLayer are the metrics of the one-line summary, in the
// order BENCHMARK.json lists them. The record carries more: the simulated
// outcomes (exact per seed, so a regression bound over seeds says nothing
// about them) and layer figures that are identically zero on some
// workload by construction.
var (
	endToEnd = []string{"setup_s", "run_s", "cpu_s", "live_bytes_per_node"}

	perLayer = []string{
		"cpu_pct.sim", "cpu_pct.medium", "cpu_pct.flatmap", "cpu_pct.watch", "cpu_pct.neighbor",
		"cpu_pct.detector", "cpu_pct.core", "cpu_pct.routing", "cpu_pct.packet", "cpu_pct.keys",
		"cpu_pct.node", "cpu_pct.field", "cpu_pct.attack", "cpu_pct.trafficgen", "cpu_pct.metrics",
		"cpu_pct.gc", "cpu_pct.other", "cpu_pct.attributed", "cpu_s.profiled",
		"heap.flatmap_bytes_per_node", "heap.watch_bytes_per_node", "heap.neighbor_bytes_per_node",
		"heap.routing_bytes_per_node",
		"sim.events", "sim.housekeeping_events", "sim.ns_per_event", "probe.sim.post_step_ns",
		"medium.transmissions", "medium.deliveries", "medium.losses", "medium.airtime_collisions",
		"medium.carrier_deferrals", "medium.deliveries_per_tx", "probe.medium.broadcast_ns",
		"probe.flatmap.get_ns", "probe.flatmap.put_ns", "probe.flatmap.sweep_ns",
		"watch.expectations", "watch.matches", "watch.drops", "watch.match_ratio", "watch.peak_entries",
		"probe.watch.expect_ns", "probe.watch.record_heard_ns",
		"probe.neighbor.lookup_ns",
		"detector.accusations", "detector.false_accusations",
		"core.alerts_sent", "core.alert_retries", "core.alerts_accepted", "core.isolations", "core.rejected",
		"routing.requests_originated", "routing.requests_forwarded", "routing.routes_established",
		"routing.routes_per_request", "routing.data_forwarded",
		"probe.packet.marshal_ns", "probe.packet.unmarshal_ns", "probe.keys.sign_ns", "probe.keys.verify_ns",
		"alloc_bytes_per_event",
		"span.setup_s", "span.discovery_s", "span.pre_attack_s", "span.attack_s", "trace_overhead",
	}

	// layers are the modules CPU and heap samples are attributed to.
	layers = []string{
		"sim", "medium", "flatmap", "watch", "neighbor", "detector", "core", "routing", "packet",
		"keys", "node", "field", "attack", "trafficgen", "metrics", "gc", "other",
	}
)

// unitOf names a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasPrefix(name, "cpu_pct."):
		return "%"
	case strings.HasSuffix(name, "per_node_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ns"), name == "sim.ns_per_event":
		return "ns"
	case strings.HasSuffix(name, "_s"), strings.HasPrefix(name, "cpu_s."):
		return "s"
	case strings.Contains(name, "bytes_per_"):
		return "bytes"
	case strings.HasSuffix(name, "ratio"), strings.HasSuffix(name, "_per_tx"),
		strings.HasSuffix(name, "_per_request"), name == "trace_overhead":
		return "ratio"
	}
	return "count"
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64) { m[name] = metric{Value: v, Unit: unitOf(name)} }

// summary is the one-line result the last line of output carries.
type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lwbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: lifecycle, dense-quiet, baseline-airtime, or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same scenarios")
	seconds := fs.Float64("seconds", 30, "host seconds of untraced repetitions per workload (at least two passes always run)")
	trace := fs.Int("trace", 0, "1 adds the profiled repetition and the layer probes, and summarises per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 || *seconds > 120 {
		fmt.Fprintln(stderr, "lwbench: want --workload W --seed N --seconds (0,120] --trace 0|1")
		return 2
	}
	chosen := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "lwbench: unknown workload %q\n", *name)
			return 2
		}
		chosen = []workload{w}
	}

	stamp := environment()
	budget := time.Duration(*seconds * float64(time.Second))
	out := bufio.NewWriter(stdout)
	total := summary{Correct: true, Metrics: metrics{}}
	for _, w := range chosen {
		rec, err := runWorkload(w, *seed, budget, *trace == 1, stamp)
		if err != nil {
			fmt.Fprintf(stderr, "lwbench: %s: %v\n", w.name, err)
			return 1
		}
		enc, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "lwbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(out, "%s\n", enc)
		total.Correct = total.Correct && rec.Correct
		total.Attempted += rec.Attempted
		total.Failed += rec.Failed
		names, from := endToEnd, rec.EndToEnd
		if *trace == 1 {
			names, from = perLayer, rec.PerLayer
		}
		for _, n := range names {
			m, ok := from[n]
			if !ok {
				total.Correct = false
				fmt.Fprintf(stderr, "lwbench: %s: metric %s missing\n", w.name, n)
				continue
			}
			if len(chosen) > 1 {
				n = w.name + "." + n
			}
			total.Metrics[n] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "lwbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fmt.Fprintf(stderr, "lwbench: %v\n", err)
		return 1
	}
	return 0
}

// record is everything one workload run reports.
type record struct {
	Workload  string          `json:"workload"`
	Why       string          `json:"why"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Traced    bool            `json:"traced"`
	Env       env             `json:"env"`
	Params    paramStamp      `json:"params"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	EndToEnd  metrics         `json:"end_to_end"`
	PerLayer  metrics         `json:"per_layer"`
	Scenarios []scenarioStamp `json:"scenarios"`
}

// paramStamp records the workload parameters every scenario shares.
type paramStamp struct {
	Nodes         int     `json:"nodes"`
	AvgDegree     float64 `json:"avg_degree"`
	HorizonS      float64 `json:"horizon_s"`
	AttackAfterS  float64 `json:"attack_after_s"`
	Attack        string  `json:"attack"`
	Malicious     int     `json:"malicious"`
	Liteworp      bool    `json:"liteworp"`
	Channel       string  `json:"channel"`
	ScenarioSeeds []int64 `json:"scenario_seeds"`
}

// scenarioStamp is one deployment's repetitions and exact outcomes.
type scenarioStamp struct {
	Seed     int64              `json:"seed"`
	Reps     int                `json:"reps"`
	SetupS   float64            `json:"setup_s"`
	RunS     []float64          `json:"run_s"`
	Outcomes map[string]float64 `json:"outcomes"`
}

// env is the environment stamp of every record.
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func environment() env {
	e := env{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if c := os.Getenv("LWBENCH_COMMIT"); c != "" {
		e.Commit = c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			e.Commit = rev + dirty
		}
	}
	return e
}

// scenarioRuns tallies the repetitions of one deployment.
type scenarioRuns struct {
	params liteworp.Params
	ref    fingerprint // the first successful repetition's
	reps   []rep       // successful repetitions agreeing with ref
	setups []float64   // seconds per timed NewScenario call
}

// add accounts one repetition and returns why it failed, or "".
func (s *scenarioRuns) add(r rep, err error) string {
	if err != nil {
		return fmt.Sprintf("seed %d: %v", s.params.Seed, err)
	}
	if s.ref == nil {
		s.ref = r.fp
	} else if d, differ := s.ref.diff(r.fp); differ {
		return fmt.Sprintf("seed %d: fingerprint differs from the first repetition (%s)", s.params.Seed, d)
	}
	s.reps = append(s.reps, r)
	return ""
}

// setupPerRep is how many NewScenario calls are timed ahead of each
// repetition. One call takes a millisecond or a few, close to timer noise,
// so set-up time is a median over many; spreading the calls over the whole
// run keeps one burst of interference from shifting all of them.
const setupPerRep = 8

func runWorkload(w workload, seed int64, budget time.Duration, traced bool, stamp env) (*record, error) {
	seeds := scenarioSeeds(seed, w.scenarios)
	scen := make([]*scenarioRuns, len(seeds))
	for i, s := range seeds {
		scen[i] = &scenarioRuns{params: w.params(s)}
	}
	p0 := scen[0].params
	rec := &record{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: budget.Seconds(), Traced: traced, Env: stamp,
		Params: paramStamp{
			Nodes: p0.NumNodes, AvgDegree: p0.AvgNeighbors, HorizonS: p0.Duration.Seconds(),
			AttackAfterS: p0.AttackStart.Seconds(), Attack: p0.Attack.String(), Malicious: p0.NumMalicious,
			Liteworp: p0.Liteworp, Channel: "probabilistic", ScenarioSeeds: seeds,
		},
		EndToEnd: metrics{}, PerLayer: metrics{},
	}
	if p0.AirtimeChannel {
		rec.Params.Channel = "airtime"
	}

	attempt := func(s *scenarioRuns, hooks phaseHooks) (rep, bool) {
		rec.Attempted++
		r, err := simulate(s.params, hooks)
		if why := s.add(r, err); why != "" {
			rec.Failed++
			rec.Failures = append(rec.Failures, why)
			return r, false
		}
		return r, true
	}
	start := time.Now()
	for pass := 1; ; pass++ {
		for _, s := range scen {
			if err := s.timeSetup(pass == 1); err != nil {
				return nil, err
			}
			attempt(s, phaseHooks{})
		}
		el := time.Since(start)
		if pass >= 2 && el+el/time.Duration(pass) > budget {
			break
		}
	}

	// Host-cost metrics: each deployment's repetitions do identical work,
	// so their spread is interference from other tenants of the machine.
	// Times take a deployment's fastest repetition, the least disturbed;
	// set-up, a sub-millisecond call timed many times, and memory take the
	// median. The mean over deployments then evens out their topologies.
	perScen := func(f func(rep) float64, reduce func([]float64) float64) float64 {
		var sum float64
		for _, s := range scen {
			xs := make([]float64, len(s.reps))
			for i, r := range s.reps {
				xs[i] = f(r)
			}
			sum += reduce(xs)
		}
		return sum / float64(len(scen))
	}
	n := float64(p0.NumNodes)
	e2e := rec.EndToEnd
	var setupSum float64
	for _, s := range scen {
		setupSum += median(s.setups)
	}
	e2e.set("setup_s", setupSum/float64(len(scen)))
	runS := perScen(func(r rep) float64 { return r.run().Seconds() }, fastest)
	e2e.set("run_s", runS)
	e2e.set("cpu_s", perScen(func(r rep) float64 { return r.cpu }, fastest))
	e2e.set("live_bytes_per_node", perScen(func(r rep) float64 { return r.liveBytes }, median)/n)

	// Exact metrics come from each deployment's reference fingerprint.
	sum := func(key string) float64 {
		var t float64
		for _, s := range scen {
			t += s.ref[key]
		}
		return t
	}
	k := float64(len(scen))
	e2e.set("delivery_ratio", ratio(sum("data.delivered"), sum("data.originated")))
	e2e.set("false_accusations_per_node_s", sum("detector.false_accusations")/(k*n*p0.Duration.Seconds()))
	e2e.set("falsely_isolated_nodes", sum("falsely_isolated_nodes"))
	if w.monitored {
		e2e.set("undetected_wormholes", sum("undetected_wormholes"))
		var worst float64
		for _, s := range scen {
			worst = max(worst, s.ref["isolation_latency_s"])
		}
		e2e.set("isolation_latency_s", worst)
	}

	pl := rec.PerLayer
	for _, key := range []string{
		"sim.events", "sim.housekeeping_events",
		"medium.transmissions", "medium.deliveries", "medium.losses", "medium.airtime_collisions", "medium.carrier_deferrals",
		"watch.expectations", "watch.matches", "watch.drops",
		"detector.accusations", "detector.false_accusations",
		"core.alerts_sent", "core.alert_retries", "core.alerts_accepted", "core.isolations", "core.rejected",
		"routing.requests_originated", "routing.requests_forwarded", "routing.routes_established", "routing.data_forwarded",
	} {
		pl.set(key, sum(key)/k)
	}
	var peak float64
	for _, s := range scen {
		peak = max(peak, s.ref["watch.peak_entries"])
	}
	pl.set("watch.peak_entries", peak)
	pl.set("sim.ns_per_event", runS*1e9/(sum("sim.events")/k))
	pl.set("medium.deliveries_per_tx", ratio(sum("medium.deliveries"), sum("medium.transmissions")))
	pl.set("watch.match_ratio", ratio(sum("watch.matches"), sum("watch.expectations")))
	pl.set("routing.routes_per_request", ratio(sum("routing.routes_established"), sum("routing.requests_originated")))
	pl.set("alloc_bytes_per_event", perScen(func(r rep) float64 { return r.allocBytes }, median)/(sum("sim.events")/k))

	for _, s := range scen {
		st := scenarioStamp{Seed: s.params.Seed, Reps: len(s.reps), SetupS: median(s.setups), Outcomes: map[string]float64{}}
		for _, r := range s.reps {
			st.RunS = append(st.RunS, r.run().Seconds())
		}
		for _, key := range []string{
			"sim.events", "data.originated", "data.delivered", "detector.accusations", "detector.false_accusations",
			"falsely_isolated_nodes", "malicious", "undetected_wormholes", "not_fully_isolated_wormholes", "isolation_latency_s",
		} {
			st.Outcomes[key] = s.ref[key]
		}
		rec.Scenarios = append(rec.Scenarios, st)
	}

	if traced && len(scen[0].reps) > 0 {
		if err := traceLayers(scen[0], n, pl, attempt); err != nil {
			return nil, err
		}
	}

	rec.Correct = rec.Failed == 0
	for _, m := range []metrics{rec.EndToEnd, rec.PerLayer} {
		for _, key := range sortedKeys(m) {
			if v := m[key].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				// No repetition of some deployment succeeded.
				rec.Correct = false
				m.set(key, 0)
			}
		}
	}
	return rec, nil
}

// fastest is the smallest of xs (NaN when empty, like median).
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeSetup times setupPerRep NewScenario calls of the deployment, after
// an untimed warm-up call when warmUp is set.
func (s *scenarioRuns) timeSetup(warmUp bool) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("set-up panic: %v", v)
		}
	}()
	if warmUp {
		if _, err := liteworp.NewScenario(s.params); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	for i := 0; i < setupPerRep; i++ {
		runtime.GC()
		t := time.Now()
		sc, err := liteworp.NewScenario(s.params)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		runtime.KeepAlive(sc)
		s.setups = append(s.setups, d.Seconds())
	}
	return nil
}

// heapSampleRate is the allocation sampling interval of the heap-profiled
// repetition. The runtime default (512 KiB) leaves a few-MB scenario with
// only a handful of samples; a fine rate slows allocation-heavy runs by up
// to half, which is why the CPU profile comes from a repetition of its own.
const heapSampleRate = 4096

// traceLayers runs two instrumented repetitions of the first deployment,
// one under the CPU profiler and one ending in a heap profile, then the
// layer probes, adding their metrics to pl.
func traceLayers(s *scenarioRuns, n float64, pl metrics, attempt func(*scenarioRuns, phaseHooks) (rep, bool)) error {
	untraced := make([]float64, len(s.reps))
	for i, u := range s.reps {
		untraced[i] = u.run().Seconds()
	}
	var cpuProf, heapProf bytes.Buffer
	defaultRate := runtime.MemProfileRate
	defer func() {
		pprof.StopCPUProfile()
		runtime.MemProfileRate = defaultRate
	}()
	r, ok := attempt(s, phaseHooks{
		before: func() error { return pprof.StartCPUProfile(&cpuProf) },
		atEnd: func() error {
			pprof.StopCPUProfile()
			return nil
		},
	})
	if !ok {
		return nil // counted as a failed repetition
	}
	if _, ok := attempt(s, phaseHooks{
		before: func() error {
			runtime.MemProfileRate = heapSampleRate
			return nil
		},
		atEnd: func() error {
			runtime.GC()
			err := pprof.Lookup("heap").WriteTo(&heapProf, 0)
			runtime.MemProfileRate = defaultRate
			return err
		},
	}); !ok {
		return nil
	}

	cpu, err := parseProfile(cpuProf.Bytes())
	if err != nil {
		return err
	}
	cpuBy, err := cpu.attribute("cpu/nanoseconds")
	if err != nil {
		return err
	}
	var total int64
	for _, v := range cpuBy {
		total += v
	}
	for _, l := range unionKeys(layers, cpuBy) {
		pl.set("cpu_s."+l, float64(cpuBy[l])/1e9)
		pl.set("cpu_pct."+l, 100*ratio(float64(cpuBy[l]), float64(total)))
	}
	pl.set("cpu_s.profiled", float64(total)/1e9)
	pl.set("cpu_pct.attributed", 100*ratio(float64(total-cpuBy["other"]), float64(total)))

	heap, err := parseProfile(heapProf.Bytes())
	if err != nil {
		return err
	}
	heapBy, err := heap.attribute("inuse_space/bytes")
	if err != nil {
		return err
	}
	for _, l := range unionKeys(layers, heapBy) {
		pl.set("heap."+l+"_bytes_per_node", float64(heapBy[l])/n)
	}

	pl.set("span.setup_s", r.setup.Seconds())
	pl.set("span.discovery_s", r.discovery.Seconds())
	pl.set("span.pre_attack_s", r.preAttack.Seconds())
	pl.set("span.attack_s", r.attack.Seconds())
	pl.set("trace_overhead", r.run().Seconds()/median(untraced))

	ref := s.reps[0]
	sz := probeSize{
		seed:        s.params.Seed,
		pending:     ref.out.pendingEnd,
		occupancy:   int(s.ref["watch.peak_entries"]),
		degree:      ref.out.degree,
		bytesByType: ref.out.bytesByType,
		airtime:     s.params.AirtimeChannel,
	}
	probes, err := guarded(func() map[string]float64 { return runProbes(sz) })
	if err != nil {
		return err
	}
	for name, v := range probes {
		pl.set(name, v)
	}
	return nil
}

// guarded returns f's result, or its panic as an error.
func guarded[T any](f func() T) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return f(), nil
}

// unionKeys is fixed followed by any extra keys of m, sorted.
func unionKeys(fixed []string, m map[string]int64) []string {
	out := append([]string(nil), fixed...)
	seen := map[string]bool{}
	for _, l := range fixed {
		seen[l] = true
	}
	for _, l := range sortedKeys(m) {
		if !seen[l] {
			out = append(out, l)
		}
	}
	return out
}
