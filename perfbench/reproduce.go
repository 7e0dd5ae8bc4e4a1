package main

import (
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/experiments"
	"lpbuf/internal/interp"
	"lpbuf/internal/obs"
	"lpbuf/internal/runner"
)

// configs are the paper's two compilation configurations.
var configs = []string{"traditional", "aggressive"}

// workers bounds reproduce's runner pool: one process, at most two jobs
// in flight (this benchmark's load limit; shootout-exact runs one).
func workers() int { return min(2, runtime.NumCPU()) }

// inProcess is the state shared by the two workloads that drive
// experiments.Suite directly (reproduce and shootout-exact).
type inProcess struct {
	cfg *config
	// round runs one round on a fresh suite and returns the op wall
	// times and the checks' problems; ops is the round's op count.
	round func(o *obs.Obs) (*roundResult, error)
	ops   int
	// opKeys lists each op's (benchmark, config) for latency and
	// failure accounting.
	opKeys [][2]string
	report []string
	// interpConfigs are the configs whose compiles a round interprets
	// (counted once, untimed, in traced runs).
	interpConfigs []string
	// simOps and plans count architecturally simulated ops and buffer
	// plans per round.
	simOps, plans int64
}

type roundResult struct {
	wall time.Duration
	snap runner.Snapshot
	chk  *checker
	// exact-backend counts of a shoot-out round.
	nodes, fallbacks int64
	proven, kernels  int
	headline         *experiments.Headline
}

// registry is the set-up of the in-process workloads: the benchmark
// registry, whose first use in a process synthesizes every input and
// runs the pure-Go references, and each Table 1 program's IR (whose
// build is deterministic) checked against the baselines' list.
func registry(cfg *config) error {
	if cfg.inject {
		injectFailure(cfg.base)
	}
	for _, b := range suite.All() {
		if b.Build().OpCount() == 0 {
			return fmt.Errorf("%s: empty program", b.Name)
		}
		if cfg.base.Benchmarks[b.Name] == nil {
			return fmt.Errorf("%s: missing from the baselines", b.Name)
		}
	}
	return nil
}

// seededCapacities draws one buffer capacity from each of the seven
// octaves [16, 32) ... [1024, 2048), so every seed sweeps small to large
// buffers as the paper's sweep does, and returns them with the paper's
// 256, sorted.
func seededCapacities(seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{256}
	for lo := 16; lo < 2048; lo *= 2 {
		c := lo + rng.Intn(lo)
		if c == 256 {
			c++
		}
		sizes = append(sizes, c)
	}
	sort.Ints(sizes)
	return sizes
}

func setupReproduce(cfg *config) (instance, error) {
	if err := registry(cfg); err != nil {
		return nil, err
	}
	sizes := seededCapacities(cfg.seed)
	p := &inProcess{cfg: cfg, ops: len(experiments.Benchmarks()) * len(configs)}
	for _, b := range experiments.Benchmarks() {
		for _, c := range configs {
			p.opKeys = append(p.opKeys, [2]string{b, c})
			p.simOps += cfg.base.Benchmarks[b][c].OpsIssued
			p.plans += int64(len(sizes))
		}
	}
	p.report = append(p.report, fmt.Sprintf("inputs: capacities %v (seeded) ", sizes))
	p.interpConfigs = configs
	p.round = func(o *obs.Obs) (*roundResult, error) {
		s := experiments.NewWithOptions(experiments.Options{Workers: workers(), Obs: o})
		rr := &roundResult{chk: &checker{base: cfg.base}}
		art := &experiments.Artifact{BufferSizes: sizes, Figure7: map[string][]experiments.Fig7Row{}}
		start := time.Now()
		for _, c := range configs {
			rows, err := s.Figure7(c, sizes)
			if err != nil {
				rr.chk.addf("", "figure 7 %s: %v", c, err)
				continue
			}
			art.Figure7[c] = rows
		}
		var err error
		if art.Figure8a, err = s.Figure8a(); err != nil {
			rr.chk.addf("", "figure 8a: %v", err)
		}
		if art.Figure8b, err = s.Figure8b(); err != nil {
			rr.chk.addf("", "figure 8b: %v", err)
		}
		if art.Headline, err = s.ComputeHeadline(); err != nil {
			rr.chk.addf("", "headline: %v", err)
		}
		rr.wall = time.Since(start)
		rr.headline = art.Headline
		// Every call has returned, so the snapshot is consistent.
		rr.snap = s.Metrics()
		rr.chk.artifact(art)
		for _, k := range p.opKeys {
			r, err := s.RunAt(k[0], k[1], 256) // served from the suite's memo
			if err != nil {
				rr.chk.addf(k[0]+"/"+k[1], "%s/%s@256: %v", k[0], k[1], err)
				continue
			}
			rr.chk.run(r)
		}
		return rr, nil
	}
	return p, nil
}

func (p *inProcess) close() {}

// measure runs whole rounds until the measured time is spent.
func (p *inProcess) measure(traced bool) (*phase, error) {
	ph := &phase{report: append([]string(nil), p.report...)}
	var o *obs.Obs
	var mem *memDelta
	if traced {
		o = obs.New(obs.Config{Spans: true})
		mem = startMem()
	}
	var last *roundResult
	var walls, roundP90 []float64
	rounds := 0
	var nodes, fallbacks, runHits, runMisses, pmuSamples int64
	deadline := time.Duration(p.cfg.seconds * float64(time.Second))
	for ph.tpWall < deadline {
		// Each round's suite gets its own registry, so its runner
		// snapshot counts that round alone; all rounds share the trace.
		var ro *obs.Obs
		if traced {
			ro = &obs.Obs{Reg: obs.NewRegistry(), Trace: o.Trace}
		}
		rr, err := p.round(ro)
		if err != nil {
			return nil, err
		}
		if ro != nil {
			pmuSamples += ro.Reg.Counter("sim.pmu.samples").Value()
		}
		runHits += rr.snap.RunHits
		runMisses += rr.snap.RunMisses
		rounds++
		last = rr
		walls = append(walls, rr.wall.Seconds())
		ph.tpWall += rr.wall
		ph.tpOps += p.ops
		ph.attempted += p.ops
		nodes += rr.nodes
		fallbacks += rr.fallbacks
		for _, pr := range rr.chk.problems {
			ph.failures = append(ph.failures, pr.msg)
		}
		for _, k := range p.opKeys {
			if rr.chk.fails(k[0], k[1]) {
				ph.failed++
			}
		}
		lat := opLatencies(rr.snap, p.opKeys)
		ph.latMS = append(ph.latMS, lat...)
		roundP90 = append(roundP90, quantile(sortedCopy(lat), 0.9))
	}
	// A round's p90 sits at a fixed rank among its ops, so the median
	// over rounds does not shift with the number of rounds a run fits.
	ph.p90MS = median(roundP90)
	var memLayers map[string]float64
	if traced {
		memLayers = mem.layers(ph.attempted)
	}
	ph.report = append(ph.report, fmt.Sprintf("rounds %d, %d ops in %.3fs; round walls %s s",
		rounds, ph.tpOps, ph.tpWall.Seconds(), formatFloats(walls, 4)),
		fmt.Sprintf("latency_p90_ms %.4f ms: median of the rounds' op p90s %s ms",
			ph.p90MS, formatFloats(roundP90, 4)))
	if h := last.headline; h != nil {
		ph.report = append(ph.report,
			fmt.Sprintf("sim_speedup %.4f x (simulated; mean traditional/aggressive cycles at 256 ops)", h.AvgSpeedup),
			fmt.Sprintf("buffer_issue_pct %.2f %% (simulated; aggressive, 256-op buffer, jpegenc/mpeg2enc excluded)", 100*h.BufferIssueAggressive),
			fmt.Sprintf("fetch_power_norm %.4f ratio (simulated; aggressive fetch energy vs unbuffered traditional)", h.FetchPowerTransformed))
	}
	if last.kernels > 0 {
		ph.report = append(ph.report, fmt.Sprintf("kernels_proven_pct %.2f %% (%d of %d kernels proven minimal by the exact backend)",
			100*float64(last.proven)/float64(last.kernels), last.proven, last.kernels))
	}
	if !traced {
		return ph, nil
	}
	// Layers are read before the sample run below adds its spans.
	spans, err := chromeOf(o.Trace)
	if err != nil {
		return nil, err
	}
	tot := newSpanTotals()
	tot.add(spans)
	ops := ph.attempted
	ph.layers = tot.layers(ops)
	maps.Copy(ph.layers, memLayers)
	iops, err := countInterpOps(p.interpConfigs)
	if err != nil {
		return nil, err
	}
	allSim := float64(p.simOps) * float64(rounds)
	ph.layers["interp.ops"] = float64(iops) * float64(rounds) / float64(ops)
	if iops > 0 {
		ph.layers["interp.ns_per_op"] = 1e6 * ph.layers["interp.ms"] / (float64(iops) / float64(len(p.opKeys)))
	}
	ph.layers["vliw.sim_ops"] = allSim / float64(ops)
	ph.layers["vliw.plans"] = float64(p.plans) * float64(rounds) / float64(ops)
	ph.layers["vliw.ns_per_sim_op"] = 1e6 * ph.layers["vliw.ms"] * float64(ops) / allSim
	ph.layers["optimal.nodes"] = float64(nodes) / float64(ops)
	ph.layers["optimal.fallbacks"] = float64(fallbacks) / float64(ops)
	if nodes > 0 {
		ph.layers["optimal.us_per_node"] = 1e3 * ph.layers["optimal.ms"] * float64(ops) / float64(nodes)
	}
	ph.layers["pmu.samples"] = float64(pmuSamples) / float64(ops)
	if n := runHits + runMisses; n > 0 {
		ph.layers["experiments.run_hit_ratio"] = float64(runHits) / float64(n)
	}
	ph.layers["runner.peak_in_flight"] = float64(last.snap.PeakInFlight)
	worker, rem, pct := tot.attribution()
	ph.layers["trace.unattributed_pct"] = pct
	ph.report = append(ph.report, fmt.Sprintf(
		"traced worker time %.1f ms over %d rounds; named layers cover %.1f%%, unattributed remainder %.1f ms (%.2f%%: IR build and memo lookups inside compile jobs)",
		worker, rounds, 100-pct, rem, pct))
	if tot.dropped {
		ph.fail("trace dropped spans; per-layer totals are incomplete")
	}
	return ph, writeTrace(p.cfg, o.Trace)
}

// opLatencies returns each op's service time: its compile job's wall
// time plus its simulate job's, from the runner's per-job records.
// Later figures re-run compile jobs as memo hits; the op's own compile
// is the longest record under its key.
func opLatencies(snap runner.Snapshot, keys [][2]string) []float64 {
	compile := map[string]float64{}
	simulate := map[string]float64{}
	for _, j := range snap.Jobs {
		switch j.Kind {
		case string(runner.KindCompile):
			compile[j.Key] = max(compile[j.Key], j.WallMS)
		case string(runner.KindSimulate):
			simulate[j.Key] = max(simulate[j.Key], j.WallMS)
		}
	}
	var out []float64
	for _, k := range keys {
		sim := simulate["simulate/"+k[0]+"/"+k[1]+"/sweep"]
		if v, ok := simulate[fmt.Sprintf("simulate/%s/%s@256", k[0], k[1])]; ok && sim == 0 {
			sim = v
		}
		out = append(out, compile["compile/"+k[0]+"/"+k[1]]+sim)
	}
	return out
}

// countInterpOps counts the IR operations one round interprets: for
// every (benchmark, config) compile, the reference run of the original
// program and the re-profile of the transformed one. It is a one-off,
// untimed compile per pair.
func countInterpOps(cfgs []string) (int64, error) {
	var total int64
	for _, b := range suite.All() {
		for _, name := range cfgs {
			cc := core.Traditional(256)
			if name != "traditional" {
				cc = core.Aggressive(256)
			}
			c, err := core.Compile(b.Build(), cc)
			if err != nil {
				return 0, err
			}
			re, err := interp.Run(c.TransformedIR, interp.Options{})
			if err != nil {
				return 0, err
			}
			total += c.Ref.Ops + re.Ops
		}
	}
	return total, nil
}

// writeTrace writes the traced phase's spans as Perfetto JSON. One
// untimed solo run of g724dec (aggressive, 64-op buffer — a Figure 5
// point) fills the simulator track, which batched sweeps never emit.
func writeTrace(cfg *config, t *obs.Trace) error {
	sim := obs.NewSimTrace(1 << 12)
	root := t.StartSpan("trace.sample")
	b, _ := suite.ByName("g724dec")
	cc := core.Aggressive(64)
	cc.Obs = &obs.Obs{Trace: t, Sim: sim}
	cc.TraceLabel = b.Name
	c, err := core.Compile(b.Build(), cc)
	if err == nil {
		_, err = c.Run()
	}
	root.End()
	if err != nil {
		return fmt.Errorf("trace sample: %w", err)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	return obs.WriteChromeTraceFile(path, t, sim)
}
