// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 7): the buffer-issue curves of Figure 7,
// the performance/code-size/fetch comparison of Figure 8(a), the
// normalized instruction-fetch power of Figure 8(b), the predication
// characterization of Figure 3, and the PostFilter buffer traces of
// Figure 5. Every simulated run is verified against the interpreter's
// reference output before its numbers are reported.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"lpbuf/internal/bench"
	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/ir"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/power"
	"lpbuf/internal/predicate"
	"lpbuf/internal/runner"
	"lpbuf/internal/sched"
	"lpbuf/internal/vliw"
)

// BufferSizes is the sweep of Figure 7 (operations).
var BufferSizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048}

// Cache is the memoization layer behind one or more Suites: compiled
// benchmarks, reference runs and verified simulation results, each in
// a memo, so each (benchmark, config) pair compiles at most once and
// each (benchmark, config, buffer) triple simulates at most once per
// Cache, no matter how many suites or figures request it concurrently.
// A long-running service hands every job's Suite the same Cache, which
// is what makes repeated and overlapping jobs cheap.
type Cache struct {
	compiles memo[string, *core.Compiled]
	runs     memo[string, *Run]
	// sweeps shares one sweep's simulation among concurrent identical
	// RunSweepAt calls; its Runs also land in runs.
	sweeps memo[string, []*Run]
	// refs holds one reference run per benchmark, shared read-only by
	// every config's compile. It is keyed by benchmark name alone: the
	// reference depends on the program alone.
	refs memo[string, *core.Reference]
}

// NewCache creates an empty compile/run cache.
func NewCache() *Cache {
	return &Cache{}
}

// Suite caches compiled benchmarks and verified simulation results
// across experiments (through its Cache, private by default, shareable
// via Options.Cache). It is safe for concurrent use.
type Suite struct {
	run     *runner.Runner
	metrics *runner.Metrics
	cc      *Cache
	verify  bool
	obs     *obs.Obs
	pmu     *pmu.Config

	// profiles collects the PMU profiles of runs this suite served
	// (keyed by run label), so SimProfiles reports exactly the runs
	// behind this suite's figures even when the memoization cache is
	// shared across suites.
	profMu   sync.Mutex
	profiles map[string]*pmu.Profile
}

// Options configures a Suite's execution subsystem.
type Options struct {
	// Workers bounds the figure tasks in flight; <=0 uses
	// runtime.GOMAXPROCS(0).
	Workers int
	// OnEvent observes the runner's job event stream (progress log).
	OnEvent func(runner.Event)
	// Verify enables the internal/verify phase checkpoints on every
	// compile the suite performs (lpbuf -verify).
	Verify bool
	// Obs threads observability through every compile and simulation
	// the suite performs: compile-phase and runner-job spans into
	// Obs.Trace, simulator events into Obs.Sim, and counters into
	// Obs.Reg (which also backs the runner metrics, so one registry
	// snapshot covers both layers). Nil disables instrumentation.
	Obs *obs.Obs
	// Cache shares compile and simulation memoization with other
	// suites (lpbufd gives every job's suite one process-wide cache).
	// Nil gives the suite a private cache, preserving the historical
	// one-suite-per-process behaviour.
	Cache *Cache
	// PMU enables sampled guest profiling on every simulation the
	// suite performs; SimProfiles then exports the per-plan profiles.
	// Like Obs, the PMU config is not part of the memoization key:
	// cached runs carry whatever profile (or none) their first
	// computation produced, so suites sharing a Cache should agree on
	// sampling (lpbufd enables it for every job).
	PMU *pmu.Config
}

// New creates an empty experiment suite with default options.
func New() *Suite {
	return NewWithOptions(Options{})
}

// NewWithOptions creates an empty experiment suite with an explicit
// worker bound and/or event observer.
func NewWithOptions(o Options) *Suite {
	m := runner.NewMetricsIn(o.Obs.Registry())
	var trace *obs.Trace
	if o.Obs != nil {
		trace = o.Obs.Trace
	}
	cc := o.Cache
	if cc == nil {
		cc = NewCache()
	}
	return &Suite{
		run:      runner.New(o.Workers, m, o.OnEvent, trace),
		metrics:  m,
		verify:   o.Verify,
		obs:      o.Obs,
		pmu:      o.PMU,
		cc:       cc,
		profiles: map[string]*pmu.Profile{},
	}
}

// noteRuns collects the PMU profiles of runs this suite served.
func (s *Suite) noteRuns(runs ...*Run) {
	if s.pmu == nil {
		return
	}
	s.profMu.Lock()
	for _, r := range runs {
		if r != nil && r.Profile != nil {
			s.profiles[r.Profile.Label] = r.Profile
		}
	}
	s.profMu.Unlock()
}

// SimProfiles snapshots the sampled PMU profiles of every verified run
// this suite performed (or served from cache) as a versioned
// lpbuf.simprofile/v1 document. Nil when sampling is disabled or no
// profiled run has completed yet.
func (s *Suite) SimProfiles() *pmu.Document {
	if s.pmu == nil {
		return nil
	}
	s.profMu.Lock()
	ps := make([]*pmu.Profile, 0, len(s.profiles))
	for _, p := range s.profiles {
		ps = append(ps, p)
	}
	s.profMu.Unlock()
	if len(ps) == 0 {
		return nil
	}
	return pmu.NewDocument(*s.pmu, ps)
}

// Metrics snapshots the suite's execution counters (jobs, wall-time
// split, cache hits/misses, peak in-flight).
func (s *Suite) Metrics() runner.Snapshot { return s.metrics.Snapshot() }

// Benchmarks returns the Table 1 benchmark names in order.
func Benchmarks() []string {
	var names []string
	for _, b := range suite.All() {
		names = append(names, b.Name)
	}
	return names
}

// compiled returns the memoized compile of one benchmark/config;
// concurrent first requests share one compile.
func (s *Suite) compiled(name, cfg string) (*core.Compiled, bench.Benchmark, error) {
	b, ok := suite.ByName(name)
	if !ok {
		return nil, b, fmt.Errorf("unknown benchmark %q (known: %s)", name, strings.Join(Benchmarks(), ", "))
	}
	// A "-optimal" suffix selects the exact modulo-scheduler backend on
	// top of the base pipeline (the scheduler shoot-out's second axis).
	base, backend := cfg, ""
	if v, ok := strings.CutSuffix(cfg, "-optimal"); ok {
		base, backend = v, "optimal"
	}
	var config core.Config
	switch base {
	case "traditional":
		config = core.Traditional(256)
	case "aggressive":
		config = core.Aggressive(256)
	default:
		return nil, b, fmt.Errorf("unknown config %q", cfg)
	}
	config.Name = cfg
	config.SchedBackend = backend
	config.Verify = s.verify
	config.Obs = s.obs
	config.PMU = s.pmu
	config.TraceLabel = name
	// Verify-enabled compiles run the phase checkpoints; a shared cache
	// must not satisfy a verifying suite with an unverified compile (or
	// vice versa — a verified artifact is fine but the hit would skip
	// the checkpoints the caller asked for), so verify is in the key.
	key := name + "/" + cfg + verifyKeySuffix(s.verify)
	c, hit, err := s.cc.compiles.get(key, func() (*core.Compiled, error) {
		s.metrics.CacheMiss()
		c, err := s.compileShared(name, b.Build(), config)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, cfg, err)
		}
		return c, nil
	})
	if err != nil {
		return nil, b, err
	}
	if hit {
		s.metrics.CacheHit()
	}
	return c, b, nil
}

// compileShared compiles benchmark name's program prog under config,
// sharing the benchmark's memoized reference run.
func (s *Suite) compileShared(name string, prog *ir.Program, config core.Config) (*core.Compiled, error) {
	return core.CompileWithReference(prog, config, func() (*core.Reference, error) {
		r, _, err := s.cc.refs.get(name, func() (*core.Reference, error) {
			return core.RunReference(prog)
		})
		return r, err
	})
}

// simulating returns c set to report its simulations to this suite. A
// memoized compile keeps the Obs and PMU of the suite that compiled
// it; in lpbufd that suite may belong to a finished job whose registry
// nothing folds any more.
func (s *Suite) simulating(c *core.Compiled) *core.Compiled {
	sc := *c
	sc.Config.Obs, sc.Config.PMU = s.obs, s.pmu
	return &sc
}

// Run is one verified simulation outcome.
type Run struct {
	Bench     string
	Config    string
	BufferOps int
	Stats     vliw.Stats
	Pass      core.PassStats
	// StaticOps is the scheduled code size in operations (including
	// software-pipelining expansion).
	StaticOps int
	// Profile is the run's sampled PMU profile (nil when the run was
	// first computed with sampling disabled).
	Profile *pmu.Profile
}

// staticOps is c's scheduled code size in operations.
func staticOps(c *core.Compiled) int {
	n := 0
	for _, fc := range c.Code.Funcs {
		n += fc.OpCount()
	}
	return n
}

// runKey keys one verified run in the Cache.
func (s *Suite) runKey(name, cfg string, bufferOps int) string {
	return fmt.Sprintf("%s/%s@%d%s", name, cfg, bufferOps, verifyKeySuffix(s.verify))
}

// RunAt compiles (cached), re-plans the buffer at the given capacity,
// runs, verifies the output against both the interpreter reference and
// the pure-Go reference, and reports the statistics. Results are
// memoized: the simulator is deterministic, so each (benchmark,
// config, buffer) triple is simulated and verified once per Cache,
// with concurrent requests sharing one simulation.
func (s *Suite) RunAt(name, cfg string, bufferOps int) (*Run, error) {
	r, hit, err := s.cc.runs.get(s.runKey(name, cfg, bufferOps), func() (*Run, error) {
		s.metrics.RunMiss()
		return s.runUncached(name, cfg, bufferOps)
	})
	if err != nil {
		return nil, err
	}
	if hit {
		s.metrics.RunHit()
	}
	s.noteRuns(r)
	return r, nil
}

// RunSweepAt runs one benchmark/config across a whole buffer sweep as
// ONE simulation (core.RunSweep: vliw.Execute, then a vliw fold per
// capacity): the program executes once and its statistics are
// accounted under every capacity, so a Figure 7 sweep costs one
// simulation instead of len(sizes). The per-size Runs land in the same
// memo RunAt uses (a fold's stats are bit-identical to a live run's —
// the fold-vs-live contract), so
// sweeps and point queries serve each other's hits; a sweep whose
// every size is cached simulates nothing. Results come back in sizes
// order.
func (s *Suite) RunSweepAt(name, cfg string, sizes []int) ([]*Run, error) {
	out := make([]*Run, len(sizes))
	cached := true
	for i, sz := range sizes {
		if out[i], cached = s.cc.runs.peek(s.runKey(name, cfg, sz)); !cached {
			break
		}
	}
	if !cached {
		key := fmt.Sprintf("%s/%s@%v%s", name, cfg, sizes, verifyKeySuffix(s.verify))
		var err error
		out, cached, err = s.cc.sweeps.get(key, func() ([]*Run, error) {
			return s.sweep(name, cfg, sizes)
		})
		if err != nil {
			return nil, err
		}
	}
	if cached {
		for range sizes {
			s.metrics.RunHit()
		}
	}
	s.noteRuns(out...)
	return out, nil
}

// sweep is the simulation behind RunSweepAt. A size that a
// RunAt cached first keeps that Run, so the memo stays pointer-stable
// for both callers.
func (s *Suite) sweep(name, cfg string, sizes []int) ([]*Run, error) {
	c, b, err := s.compiled(name, cfg)
	if err != nil {
		return nil, err
	}
	results, err := s.simulating(c).RunSweep(sizes)
	if err != nil {
		return nil, err
	}
	// The sweep's runs share one final memory image; checking it once
	// checks every capacity's run.
	if err := b.Check(results[0].Mem); err != nil {
		return nil, fmt.Errorf("%s/%s sweep: output check: %w", name, cfg, err)
	}
	static := staticOps(c)
	out := make([]*Run, len(sizes))
	for i, sz := range sizes {
		fresh := &Run{Bench: name, Config: cfg, BufferOps: sz,
			Stats: results[i].Stats, Pass: c.Stats, StaticOps: static,
			Profile: results[i].Profile}
		r, hit, err := s.cc.runs.get(s.runKey(name, cfg, sz), func() (*Run, error) { return fresh, nil })
		if err != nil {
			return nil, err
		}
		if hit {
			s.metrics.RunHit()
		} else {
			s.metrics.RunMiss()
		}
		out[i] = r
	}
	return out, nil
}

// verifyKeySuffix segregates verify-enabled entries in a shared Cache.
func verifyKeySuffix(verify bool) string {
	if verify {
		return "/verify"
	}
	return ""
}

// runUncached is the verified simulation behind RunAt.
func (s *Suite) runUncached(name, cfg string, bufferOps int) (*Run, error) {
	c, b, err := s.compiled(name, cfg)
	if err != nil {
		return nil, err
	}
	res, err := s.simulating(c).RunWithBuffer(bufferOps)
	if err != nil {
		return nil, err
	}
	if err := b.Check(res.Mem); err != nil {
		return nil, fmt.Errorf("%s/%s@%d: output check: %w", name, cfg, bufferOps, err)
	}
	return &Run{Bench: name, Config: cfg, BufferOps: bufferOps,
		Stats: res.Stats, Pass: c.Stats, StaticOps: staticOps(c),
		Profile: res.Profile}, nil
}

// Disasm returns the aggressive-config scheduled-code listing of a
// benchmark (all functions).
func (s *Suite) Disasm(name string) (string, error) {
	return s.DisasmConfig(name, "aggressive")
}

// DisasmConfig is Disasm under an explicit config name (any name
// compiled() accepts, e.g. "aggressive-optimal" for the exact
// modulo-scheduling backend).
func (s *Suite) DisasmConfig(name, cfg string) (string, error) {
	c, _, err := s.compiled(name, cfg)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, fname := range c.Code.Prog.Order {
		sb.WriteString(c.Code.Funcs[fname].Disasm())
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

// ---- Figure 7: buffer issue fraction vs buffer size ----

// Fig7Row is one benchmark's curve.
type Fig7Row struct {
	Bench  string          `json:"bench"`
	Ratios map[int]float64 `json:"ratios"` // buffer size -> fraction
}

// Figure7 computes the Figure 7(a) (traditional) or 7(b) (aggressive)
// curves for all benchmarks, one compile-and-sweep task per benchmark
// (see tasks.go); rows come back in benchmark-table order regardless
// of completion order.
func (s *Suite) Figure7(cfg string, sizes []int) ([]Fig7Row, error) {
	return s.Figure7Ctx(context.Background(), cfg, sizes)
}

// RenderFig7 formats the curves as a table.
func RenderFig7(title string, rows []Fig7Row, sizes []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%-10s", title, "bench")
	for _, sz := range sizes {
		fmt.Fprintf(&sb, "%8d", sz)
	}
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s", r.Bench)
		for _, sz := range sizes {
			fmt.Fprintf(&sb, "%7.1f%%", 100*r.Ratios[sz])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ---- Figure 8(a): speedup, code size, fetch counts ----

// Fig8aRow compares aggressive vs traditional for one benchmark.
type Fig8aRow struct {
	Bench string `json:"bench"`
	// Speedup is traditional cycles / aggressive cycles.
	Speedup float64 `json:"speedup"`
	// CodeSize is aggressive static ops / traditional static ops.
	CodeSize float64 `json:"code_size"`
	// TotalFetch is aggressive fetched ops / traditional fetched ops.
	TotalFetch float64 `json:"total_fetch"`
	// MemFetch is the ratio of ops fetched from global memory.
	MemFetch float64 `json:"mem_fetch"`
}

// Figure8a computes the Figure 8(a) ratios at the paper's 256-op
// buffer.
func (s *Suite) Figure8a() ([]Fig8aRow, error) {
	return s.Figure8aCtx(context.Background())
}

// fig8aRow reduces one benchmark's pair of verified runs.
func fig8aRow(name string, tr, ag *Run) Fig8aRow {
	trMem := tr.Stats.OpsIssued - tr.Stats.OpsFromBuffer
	agMem := ag.Stats.OpsIssued - ag.Stats.OpsFromBuffer
	return Fig8aRow{
		Bench:      name,
		Speedup:    float64(tr.Stats.Cycles) / float64(ag.Stats.Cycles),
		CodeSize:   float64(ag.StaticOps) / float64(tr.StaticOps),
		TotalFetch: float64(ag.Stats.OpsIssued) / float64(tr.Stats.OpsIssued),
		MemFetch:   float64(agMem) / float64(trMem),
	}
}

// RenderFig8a formats the comparison.
func RenderFig8a(rows []Fig8aRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8(a): aggressive vs traditional (256-op buffer)\n")
	fmt.Fprintf(&sb, "%-10s %9s %10s %11s %10s\n", "bench", "speedup", "code size", "total fetch", "mem fetch")
	var gs float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %8.2fx %9.2fx %10.2fx %9.2fx\n",
			r.Bench, r.Speedup, r.CodeSize, r.TotalFetch, r.MemFetch)
		gs += r.Speedup
	}
	fmt.Fprintf(&sb, "average speedup: %.2fx (paper: 1.81x)\n", gs/float64(len(rows)))
	return sb.String()
}

// ---- Figure 8(b): normalized instruction fetch power ----

// Fig8bRow gives normalized fetch energy for one benchmark.
type Fig8bRow struct {
	Bench string `json:"bench"`
	// BaselineBuffered: traditional code with the 256-op buffer.
	BaselineBuffered float64 `json:"baseline_buffered"`
	// TransformedBuffered: aggressive code with the 256-op buffer.
	TransformedBuffered float64 `json:"transformed_buffered"`
}

// Figure8b computes Figure 8(b), normalized to buffer-less issue of
// traditionally optimized code.
func (s *Suite) Figure8b() ([]Fig8bRow, error) {
	return s.Figure8bCtx(context.Background())
}

// fig8bRow reduces one benchmark's pair of verified runs under the
// fetch-power model.
func fig8bRow(model *power.Model, name string, tr, ag *Run) Fig8bRow {
	base := tr.Stats.OpsIssued // all-memory baseline fetches
	trMem := tr.Stats.OpsIssued - tr.Stats.OpsFromBuffer
	agMem := ag.Stats.OpsIssued - ag.Stats.OpsFromBuffer
	return Fig8bRow{
		Bench:               name,
		BaselineBuffered:    model.Normalized(trMem, tr.Stats.OpsFromBuffer, 256, base),
		TransformedBuffered: model.Normalized(agMem, ag.Stats.OpsFromBuffer, 256, base),
	}
}

// RenderFig8b formats the power results.
func RenderFig8b(rows []Fig8bRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 8(b): normalized instruction fetch power (1.0 = unbuffered traditional)\n")
	fmt.Fprintf(&sb, "%-10s %18s %20s\n", "bench", "baseline buffered", "transformed buffered")
	var sb1, sb2 float64
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %17.3f %19.3f\n", r.Bench, r.BaselineBuffered, r.TransformedBuffered)
		sb1 += r.BaselineBuffered
		sb2 += r.TransformedBuffered
	}
	n := float64(len(rows))
	fmt.Fprintf(&sb, "average: baseline buffered %.3f (paper: 0.654), transformed %.3f (paper: 0.277)\n",
		sb1/n, sb2/n)
	return sb.String()
}

// ---- Figure 3: predication characterization ----

// Fig3 aggregates the three cumulative distributions of Figure 3 over
// the aggressive compiles of all benchmarks.
type Fig3 struct {
	// ConsumersStatic[n] counts defines with exactly n consumers;
	// ConsumersDynamic weights by profiled block execution.
	ConsumersStatic  map[int]int64 `json:"consumers_static"`
	ConsumersDynamic map[int]int64 `json:"consumers_dynamic"`
	// Durations[d] counts defines whose value lives d cycles in the
	// final schedule (dynamic weighting).
	Durations map[int]int64 `json:"durations"`
	// Overlap[m] counts loops whose schedule keeps at most m predicates
	// simultaneously live (weighted by loop iterations).
	Overlap map[int]int64 `json:"overlap"`
	// PredicatedLoops / TotalLoops count loop sections.
	PredicatedLoops int `json:"predicated_loops"`
	TotalLoops      int `json:"total_loops"`
	// SensitiveDynamic / IssuedDynamic give the fraction of dynamic
	// operations in predicated loops carrying the sensitivity bit.
	SensitiveDynamic int64 `json:"sensitive_dynamic"`
	IssuedDynamic    int64 `json:"issued_dynamic"`
	// MaxLiveMax is the largest observed simultaneous liveness.
	MaxLiveMax int `json:"max_live_max"`
	// SlotModelOK reports whether every loop fit the 8-slot model.
	SlotModelOK bool `json:"slot_model_ok"`
	// OverflowLoops counts loops needing live-range splitting (more
	// than 8 simultaneously live predicates; the paper notes such
	// loops need extra defines to regenerate values in split ranges).
	OverflowLoops int `json:"overflow_loops"`
	// ExtraDefines totals replica defines the slot model would insert.
	ExtraDefines int `json:"extra_defines"`
}

// Figure3 computes the predication statistics. Per-benchmark analysis
// jobs run concurrently behind the aggressive compiles; their partials
// merge afterwards in benchmark-table order.
func (s *Suite) Figure3() (*Fig3, error) {
	return s.Figure3Ctx(context.Background())
}

// newFig3 creates an empty accumulator.
func newFig3() *Fig3 {
	return &Fig3{
		ConsumersStatic:  map[int]int64{},
		ConsumersDynamic: map[int]int64{},
		Durations:        map[int]int64{},
		Overlap:          map[int]int64{},
		SlotModelOK:      true,
	}
}

// mergeFig3 folds one benchmark's partial distributions into dst.
func mergeFig3(dst, src *Fig3) {
	for k, v := range src.ConsumersStatic {
		dst.ConsumersStatic[k] += v
	}
	for k, v := range src.ConsumersDynamic {
		dst.ConsumersDynamic[k] += v
	}
	for k, v := range src.Durations {
		dst.Durations[k] += v
	}
	for k, v := range src.Overlap {
		dst.Overlap[k] += v
	}
	dst.PredicatedLoops += src.PredicatedLoops
	dst.TotalLoops += src.TotalLoops
	dst.SensitiveDynamic += src.SensitiveDynamic
	dst.IssuedDynamic += src.IssuedDynamic
	if src.MaxLiveMax > dst.MaxLiveMax {
		dst.MaxLiveMax = src.MaxLiveMax
	}
	dst.SlotModelOK = dst.SlotModelOK && src.SlotModelOK
	dst.OverflowLoops += src.OverflowLoops
	dst.ExtraDefines += src.ExtraDefines
}

// fig3ForCompiled analyzes one aggressive compile, weighting each loop
// by its block's executions (w, the compile's loop weights).
func fig3ForCompiled(c *core.Compiled, w vliw.Weights) *Fig3 {
	out := newFig3()
	for _, fname := range c.Code.Prog.Order {
		fc := c.Code.Funcs[fname]
		irf := c.TransformedIR.Funcs[fname]
		for _, sec := range fc.Sections {
			if !isLoopSection(fc, sec) {
				continue
			}
			out.TotalLoops++
			blk := irf.Block(sec.Block)
			weight := int64(1)
			if n := w[vliw.Section{Func: fname, Start: sec.Start}].Iterations; n > 0 {
				weight = n
			}
			// Scheduled ops of the section.
			var sops []predicate.SchedOp
			pred := false
			for ci, bun := range sec.Bundles {
				for _, so := range bun.Ops {
					sops = append(sops, predicate.SchedOp{Op: so.Op, Cycle: ci, Slot: so.Slot})
					if so.Op.Guard != 0 || so.Op.IsPredDefine() {
						pred = true
					}
				}
			}
			if !pred {
				continue
			}
			out.PredicatedLoops++
			bind := predicate.BindSlots(dedupe(sops, sec), 8)
			out.Overlap[bind.MaxLive] += weight
			if bind.MaxLive > out.MaxLiveMax {
				out.MaxLiveMax = bind.MaxLive
			}
			if !bind.OK {
				out.SlotModelOK = false
				out.OverflowLoops++
			}
			out.ExtraDefines += bind.ExtraDefines
			out.SensitiveDynamic += int64(bind.Sensitive) * weight
			out.IssuedDynamic += int64(len(dedupe(sops, sec))) * weight
			// Consumers per define (on the IR block, one iteration).
			if blk != nil {
				for _, n := range predicate.ConsumersPerDefine(blk) {
					out.ConsumersStatic[n]++
					out.ConsumersDynamic[n] += weight
				}
			}
			// Live-range durations in the kernel schedule.
			for _, d := range durations(dedupe(sops, sec)) {
				out.Durations[d] += weight
			}
		}
	}
	return out
}

// dedupe keeps one scheduled instance per op (pipelined sections emit
// prologue/epilogue copies; the kernel instance is representative).
func dedupe(sops []predicate.SchedOp, sec *sched.BlockCode) []predicate.SchedOp {
	seen := map[*ir.Op]bool{}
	var out []predicate.SchedOp
	for _, so := range sops {
		if seen[so.Op] {
			continue
		}
		seen[so.Op] = true
		out = append(out, so)
	}
	return out
}

// durations computes per-define live-range lengths (define cycle to
// last guarded consumer cycle).
func durations(sops []predicate.SchedOp) []int {
	defC := map[ir.PredReg]int{}
	lastU := map[ir.PredReg]int{}
	for _, so := range sops {
		if so.Op.Guard != 0 {
			if so.Cycle > lastU[so.Op.Guard] {
				lastU[so.Op.Guard] = so.Cycle
			}
		}
		for _, pd := range so.Op.PredDefines() {
			if c, ok := defC[pd.Pred]; !ok || so.Cycle < c {
				defC[pd.Pred] = so.Cycle
			}
		}
	}
	var out []int
	for p, d := range defC {
		u, ok := lastU[p]
		if !ok || u < d {
			continue
		}
		out = append(out, u-d)
	}
	sort.Ints(out)
	return out
}

func isLoopSection(fc *sched.FuncCode, sec *sched.BlockCode) bool {
	if sec.Kind == sched.KindKernel {
		return true
	}
	if sec.Kind != sched.KindStraight {
		return false
	}
	for _, b := range sec.Bundles {
		for _, so := range b.Ops {
			if so.Op.LoopBack && so.Op.IsBranch() && so.TargetBundle == sec.Start {
				return true
			}
		}
	}
	return false
}

// RenderFig3 formats the distributions as cumulative percentages.
func RenderFig3(f *Fig3) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: predication characterization (aggressive config)\n")
	fmt.Fprintf(&sb, "loops: %d total, %d predicated (paper: 564 candidates, 122 predicated)\n",
		f.TotalLoops, f.PredicatedLoops)
	sb.WriteString(renderCDF("(a) consumers per define", f.ConsumersDynamic, "consumers"))
	sb.WriteString(renderCDF("(b) live range duration (cycles)", f.Durations, "cycles"))
	sb.WriteString(renderCDF("(c) simultaneously live predicates per loop", f.Overlap, "preds"))
	if f.IssuedDynamic > 0 {
		fmt.Fprintf(&sb, "sensitivity: %.1f%% of dynamic ops in predicated loops carry the bit (paper: 21.5%%)\n",
			100*float64(f.SensitiveDynamic)/float64(f.IssuedDynamic))
	}
	fmt.Fprintf(&sb, "max simultaneously live predicates: %d (8 slots available)\n", f.MaxLiveMax)
	if f.SlotModelOK {
		sb.WriteString("the slot model fits every predicated loop without splitting\n")
	} else {
		fmt.Fprintf(&sb, "%d of %d predicated loops exceed 8 live predicates and need\n",
			f.OverflowLoops, f.PredicatedLoops)
		sb.WriteString("live-range splitting (the paper's \"extra predicate defines\" case;\n")
		sb.WriteString("here it is the IDEA multiplication loop's rare-path hammocks)\n")
	}
	fmt.Fprintf(&sb, "replica defines required by the slot model: %d\n", f.ExtraDefines)
	return sb.String()
}

func renderCDF(title string, hist map[int]int64, unit string) string {
	var keys []int
	var total int64
	for k, v := range hist {
		keys = append(keys, k)
		total += v
	}
	if total == 0 {
		return title + ": (no data)\n"
	}
	sort.Ints(keys)
	var sb strings.Builder
	sb.WriteString(title + ":\n")
	var cum int64
	for _, k := range keys {
		cum += hist[k]
		fmt.Fprintf(&sb, "  <=%3d %s: %5.1f%%\n", k, unit, 100*float64(cum)/float64(total))
		if float64(cum)/float64(total) > 0.999 {
			break
		}
	}
	return sb.String()
}

// ---- Headline numbers ----

// Headline aggregates the paper's headline claims.
type Headline struct {
	// BufferIssueTraditional/Aggressive: averages at 256 ops excluding
	// jpegenc and mpeg2enc (the paper's footnote 1).
	BufferIssueTraditional float64 `json:"buffer_issue_traditional"`
	BufferIssueAggressive  float64 `json:"buffer_issue_aggressive"`
	AvgSpeedup             float64 `json:"avg_speedup"`
	// FetchPowerReduction at 256 ops vs unbuffered traditional.
	FetchPowerBaseline    float64 `json:"fetch_power_baseline"`
	FetchPowerTransformed float64 `json:"fetch_power_transformed"`
}

// ComputeHeadline runs everything needed for the abstract's numbers:
// the 256-op runs of every benchmark under both configs.
func (s *Suite) ComputeHeadline() (*Headline, error) {
	return s.ComputeHeadlineCtx(context.Background())
}

// reduceHeadline folds the traditional and aggressive 256-op runs (in
// benchmark-table order) into the headline aggregates; the power terms
// reuse fig8bRow so they are bit-identical to Figure 8(b)'s.
func reduceHeadline(names []string, pairs [][]at256) *Headline {
	h := &Headline{}
	excluded := map[string]bool{"jpegenc": true, "mpeg2enc": true}
	model := power.Default()
	n := 0
	for i, name := range names {
		t, a := pairs[i][0].r, pairs[i][1].r
		h.AvgSpeedup += float64(t.Stats.Cycles) / float64(a.Stats.Cycles)
		if !excluded[name] {
			h.BufferIssueTraditional += t.Stats.BufferIssueRatio()
			h.BufferIssueAggressive += a.Stats.BufferIssueRatio()
			n++
		}
		row := fig8bRow(model, name, t, a)
		h.FetchPowerBaseline += row.BaselineBuffered
		h.FetchPowerTransformed += row.TransformedBuffered
	}
	h.BufferIssueTraditional /= float64(n)
	h.BufferIssueAggressive /= float64(n)
	h.AvgSpeedup /= float64(len(names))
	h.FetchPowerBaseline /= float64(len(names))
	h.FetchPowerTransformed /= float64(len(names))
	return h
}

// RenderHeadline formats the headline comparison.
func RenderHeadline(h *Headline) string {
	var sb strings.Builder
	sb.WriteString("Headline numbers (paper values in parentheses):\n")
	fmt.Fprintf(&sb, "  buffer issue, traditional:  %5.1f%%  (38.7%%)\n", 100*h.BufferIssueTraditional)
	fmt.Fprintf(&sb, "  buffer issue, transformed:  %5.1f%%  (89.0%%)\n", 100*h.BufferIssueAggressive)
	fmt.Fprintf(&sb, "  average speedup:            %5.2fx  (1.81x)\n", h.AvgSpeedup)
	fmt.Fprintf(&sb, "  fetch power, baseline buf:  %5.1f%%  (65.4%%)\n", 100*h.FetchPowerBaseline)
	fmt.Fprintf(&sb, "  fetch power, transformed:   %5.1f%%  (27.7%%)\n", 100*h.FetchPowerTransformed)
	return sb.String()
}
