package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"liteworp"
	"liteworp/internal/packet"
)

// workload is one benchmark input family. Its parameters are a pure
// function of the workload seed.
type workload struct {
	name string
	why  string
	// scenarios is how many independently seeded deployments one
	// repetition pass simulates. Host time depends on the topology a seed
	// draws (over 24 seeds, host time per deployment varied by 5-8%, one
	// standard deviation), so averaging over several deployments keeps a
	// run's figures close to those of any other seed.
	scenarios int
	params    func(seed int64) liteworp.Params
	// monitored is true when LITEWORP runs against an attacker, so the
	// detection outcomes (undetected wormholes, isolation latency) exist.
	monitored bool
}

// workloads are the benchmark's inputs. All start from the paper's Table 2
// defaults (liteworp.DefaultParams).
var workloads = []workload{
	{
		name:      "lifecycle",
		why:       "only workload running discovery, traffic, wormhole, detection and isolation; every layer works on a small per-node working set",
		scenarios: 4,
		monitored: true,
		params: func(seed int64) liteworp.Params {
			p := liteworp.DefaultParams()
			p.Seed = seed
			p.Duration = 1000 * time.Second
			return p
		},
	},
	{
		name:      "dense-quiet",
		why:       "N=400 at degree 1.5 ln N with no attacker: flood-driven false accusations and watch/flatmap/neighbor state well past cache",
		scenarios: 3,
		params: func(seed int64) liteworp.Params {
			p := liteworp.DefaultParams()
			p.Seed = seed
			p.NumNodes = 400
			p.AvgNeighbors = 1.5 * math.Log(400)
			p.NumMalicious = 0
			p.Attack = liteworp.AttackNone
			p.Duration = p.AttackStart
			return p
		},
	},
	{
		name:      "baseline-airtime",
		why:       "LITEWORP off under an out-of-band wormhole on the airtime channel: kernel queue and CSMA/ARQ medium work, monitoring layers idle",
		scenarios: 3,
		params: func(seed int64) liteworp.Params {
			p := liteworp.DefaultParams()
			p.Seed = seed
			p.Liteworp = false
			p.AirtimeChannel = true
			p.Duration = 2000 * time.Second
			return p
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scenarioSeeds derives the deployments one workload seed stands for. The
// first is the workload seed itself, so seed 1 of a workload includes the
// scenario any other tool runs with seed 1.
func scenarioSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed + int64(i)*1_000_003
	}
	return out
}

// rep is one simulation of one scenario from NewScenario to the horizon.
type rep struct {
	setup, discovery, preAttack, attack time.Duration // host wall time per benchmark call
	cpu                                 float64       // process user+sys CPU seconds over the RunFor calls
	liveBytes                           float64       // post-GC heap retained by the live scenario
	allocBytes                          float64       // bytes allocated over the RunFor calls
	fp                                  fingerprint
	out                                 outcome
}

func (r rep) run() time.Duration { return r.discovery + r.preAttack + r.attack }

// fingerprint is everything about a run that is exact for a given seed:
// kernel event counts, every per-layer counter and the simulated
// end-to-end outcomes. Repetitions of one scenario must agree on all of it.
type fingerprint map[string]float64

// diff names the first key (in sorted order) on which f and g disagree.
func (f fingerprint) diff(g fingerprint) (string, bool) {
	for _, k := range sortedKeys(f) {
		if gv, ok := g[k]; !ok || gv != f[k] {
			return fmt.Sprintf("%s: %v vs %v", k, f[k], g[k]), true
		}
	}
	for _, k := range sortedKeys(g) {
		if _, ok := f[k]; !ok {
			return fmt.Sprintf("%s: missing vs %v", k, g[k]), true
		}
	}
	return "", false
}

// outcome is the part of a run the per-scenario report and the probe
// sizing need beyond the flat fingerprint.
type outcome struct {
	bytesByType map[packet.Type]uint64
	degree      float64 // mean discovered neighbor count of honest nodes
	pendingEnd  int     // kernel queue depth at the horizon
}

// phaseHooks let the traced run wrap a repetition: before runs ahead of
// NewScenario, atEnd at the horizon with the scenario still live.
type phaseHooks struct {
	before func() error
	atEnd  func() error
}

// simulate runs one scenario through its whole horizon, split at the
// operational start and the attack instant, and collects its counters. A
// panic anywhere in the program is returned as an error.
func simulate(p liteworp.Params, hooks phaseHooks) (r rep, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc

	if hooks.before != nil {
		if err := hooks.before(); err != nil {
			return r, err
		}
	}
	t0 := time.Now()
	sc, err := liteworp.NewScenario(p)
	r.setup = time.Since(t0)
	if err != nil {
		return r, err
	}
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	end := sc.OperationalStart() + p.Duration
	attackAt := min(sc.AttackTime(), end)
	cpu0 := cpuSeconds()
	phases := []struct {
		until time.Duration
		took  *time.Duration
	}{
		{sc.OperationalStart(), &r.discovery},
		{attackAt, &r.preAttack},
		{end, &r.attack},
	}
	for _, ph := range phases {
		t := time.Now()
		err := sc.RunFor(ph.until - sc.Kernel().Now())
		*ph.took = time.Since(t)
		if err != nil {
			return r, err
		}
	}
	r.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms)
	r.allocBytes = float64(ms.TotalAlloc - alloc0)

	if hooks.atEnd != nil {
		if err := hooks.atEnd(); err != nil {
			return r, err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.liveBytes = float64(ms.HeapAlloc) - float64(baseHeap)
	r.fp, r.out = collect(sc, p)
	if err := checkInvariants(r.fp, p); err != nil {
		return r, err
	}
	runtime.KeepAlive(sc)
	return r, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// collect reads the per-layer counters through the public accessors and
// derives the simulated end-to-end outcomes.
func collect(sc *liteworp.Scenario, p liteworp.Params) (fingerprint, outcome) {
	fp := fingerprint{}
	k := sc.Kernel()
	fp["sim.events"] = float64(k.Processed())
	fp["sim.housekeeping_events"] = float64(k.ProcessedHousekeeping())
	fp["sim.now_s"] = k.Now().Seconds()
	fp["sim.horizon_s"] = (sc.OperationalStart() + p.Duration).Seconds()

	ms := sc.MediumStats()
	fp["medium.transmissions"] = float64(ms.Transmissions)
	fp["medium.deliveries"] = float64(ms.Deliveries)
	fp["medium.losses"] = float64(ms.Losses)
	fp["medium.airtime_collisions"] = float64(ms.AirtimeCollisions)
	fp["medium.carrier_deferrals"] = float64(ms.CarrierDeferrals)
	fp["medium.arq_retransmissions"] = float64(ms.ARQRetransmissions)
	fp["medium.tunnel_messages"] = float64(ms.TunnelMessages)
	fp["medium.bytes_on_air"] = float64(ms.BytesOnAir)
	for t, n := range ms.BytesByType {
		fp["medium.bytes."+t.String()] = float64(n)
	}

	var degSum, honest float64
	for _, id := range sc.NodeIDs() {
		n := sc.Node(id)
		rs := n.Router().Stats()
		fp["routing.requests_originated"] += float64(rs.RequestsOriginated)
		fp["routing.requests_forwarded"] += float64(rs.RequestsForwarded)
		fp["routing.replies_originated"] += float64(rs.RepliesOriginated)
		fp["routing.routes_established"] += float64(rs.RoutesEstablished)
		fp["routing.data_forwarded"] += float64(rs.DataForwarded)
		fp["routing.sends_failed"] += float64(rs.SendsFailed)
		if n.Malicious() {
			continue
		}
		honest++
		degSum += float64(len(n.Table().Neighbors()))
		e := n.Engine()
		if e == nil {
			continue
		}
		es := e.Stats()
		fp["core.alerts_sent"] += float64(es.AlertsSent)
		fp["core.alert_retries"] += float64(es.AlertRetries)
		fp["core.alerts_accepted"] += float64(es.AlertsAccepted)
		fp["core.isolations"] += float64(es.Isolations)
		fp["core.rejected"] += float64(es.RejectedNonNeighbor + es.RejectedRevoked + es.RejectedUnknownLink)
		if b := e.Buffer(); b != nil {
			ws := b.Stats()
			fp["watch.expectations"] += float64(ws.Expectations)
			fp["watch.matches"] += float64(ws.Matches)
			fp["watch.drops"] += float64(ws.Drops)
			fp["watch.fabrications"] += float64(ws.Fabrications)
			fp["watch.peak_entries"] = max(fp["watch.peak_entries"], float64(ws.PeakEntries))
		}
	}
	// Zero-valued counters are still part of the fingerprint, so a layer
	// that stops (or starts) working is a mismatch, not a missing key.
	for _, name := range []string{
		"core.alerts_sent", "core.alert_retries", "core.alerts_accepted", "core.isolations", "core.rejected",
		"watch.expectations", "watch.matches", "watch.drops", "watch.fabrications", "watch.peak_entries",
	} {
		fp[name] += 0
	}

	res := sc.Results()
	fp["data.originated"] = float64(res.DataOriginated)
	fp["data.delivered"] = float64(res.DataDelivered)
	fp["detector.accusations"] = float64(res.Accusations)
	fp["detector.false_accusations"] = float64(res.FalseAccusations)
	fp["falsely_isolated_nodes"] = float64(res.FalselyIsolatedNodes)
	undetected, notIsolated := 0, 0
	var worst time.Duration
	for _, m := range res.Malicious {
		if !m.Detected {
			undetected++
		}
		if !m.FullyIsolated {
			notIsolated++
		}
		worst = max(worst, m.IsolationLatency)
	}
	fp["malicious"] = float64(len(res.Malicious))
	fp["undetected_wormholes"] = float64(undetected)
	fp["not_fully_isolated_wormholes"] = float64(notIsolated)
	// An attacker that is never fully isolated is censored at the end of
	// the horizon.
	if notIsolated > 0 {
		worst = sc.OperationalStart() + p.Duration - sc.AttackTime()
	}
	fp["isolation_latency_s"] = worst.Seconds()

	out := outcome{bytesByType: ms.BytesByType, pendingEnd: k.Pending()}
	if honest > 0 {
		out.degree = degSum / honest
	}
	return fp, out
}

// checkInvariants rejects counter combinations no correct run produces.
func checkInvariants(fp fingerprint, p liteworp.Params) error {
	var bad []string
	check := func(ok bool, what string) {
		if !ok {
			bad = append(bad, what)
		}
	}
	check(fp["sim.now_s"] == fp["sim.horizon_s"], fmt.Sprintf("clock at %vs, horizon %vs", fp["sim.now_s"], fp["sim.horizon_s"]))
	check(fp["sim.events"] > 0 && fp["medium.transmissions"] > 0, "no events or transmissions")
	check(fp["data.delivered"] <= fp["data.originated"], "delivered more data than originated")
	check(fp["data.originated"] > 0, "no data originated")
	check(fp["medium.deliveries"] <= fp["medium.transmissions"]*float64(p.NumNodes), "more deliveries than receivers")
	check(fp["watch.matches"]+fp["watch.drops"] <= fp["watch.expectations"], "watch resolved more expectations than it armed")
	check(fp["detector.false_accusations"] <= fp["detector.accusations"], "more false accusations than accusations")
	if !p.Liteworp {
		check(fp["detector.accusations"] == 0 && fp["watch.expectations"] == 0, "monitoring worked with LITEWORP off")
	}
	if p.NumMalicious == 0 {
		check(fp["detector.false_accusations"] == fp["detector.accusations"], "accusation against a non-existent attacker")
	}
	if len(bad) > 0 {
		return fmt.Errorf("invariant violated: %v", bad)
	}
	return nil
}
