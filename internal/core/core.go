// Package core ties the reproduction together: it drives the full
// compilation pipeline (profiling, inlining, scalar optimization, the
// control transformations of Section 3, predicate promotion, counted
// loop conversion and scheduling) in the paper's two configurations —
// "traditional" and aggressively transformed — and runs the result on
// the cycle-level VLIW simulator with execution-verified semantics,
// assigning loops to the buffer from the weights that execution
// measures.
package core

import (
	"bytes"
	"fmt"
	"sync"

	"lpbuf/internal/hyperblock"
	"lpbuf/internal/inline"
	"lpbuf/internal/interp"
	"lpbuf/internal/ir"
	"lpbuf/internal/loopbuffer"
	"lpbuf/internal/looptrans"
	"lpbuf/internal/machine"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/opt"
	"lpbuf/internal/predicate"
	"lpbuf/internal/profile"
	"lpbuf/internal/sched"
	"lpbuf/internal/sched/optimal"
	"lpbuf/internal/verify"
	"lpbuf/internal/vliw"
)

// Config selects a compilation configuration.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// Inline enables profile-guided inlining (both paper configs).
	Inline bool
	// LoopTransforms enables peeling and predicated loop collapsing.
	LoopTransforms bool
	// Predication enables if-conversion, branch combining and
	// predicate promotion.
	Predication bool
	// Modulo enables software pipelining of counted loops.
	Modulo bool
	// Ablation knobs: disable one transformation at a time while
	// keeping the rest of the aggressive pipeline (used by the
	// design-choice ablation experiments).
	DisablePeel     bool
	DisableCollapse bool
	DisableUnroll   bool
	DisableCombine  bool
	DisablePromote  bool
	// Verify runs the internal/verify phase checkpoints after every
	// pipeline phase, and interprets the transformed program against
	// the reference, failing the compile on any invariant violation or
	// behaviour change. Building with -tags verify forces it on for all
	// compiles.
	Verify bool
	// SchedBackend selects the modulo-scheduler backend: "" or
	// "heuristic" for iterative modulo scheduling, "optimal" for the
	// exact branch-and-bound backend (internal/sched/optimal), which
	// proves II minimality per kernel. Optimal compiles force Verify on:
	// every exact schedule must pass the verifier checkpoints before its
	// stats are trusted.
	SchedBackend string
	// BufferCapacity is the loop buffer size in operations.
	BufferCapacity int
	// Obs, when non-nil, receives compile-phase spans (with IR-size
	// deltas), per-pass opt/sched spans, and simulator events/counters
	// from every run of the compiled program. Nil disables all
	// instrumentation at nil-check cost.
	Obs *obs.Obs
	// PMU, when non-nil, enables sampled guest profiling on every run
	// of the compiled program: each vliw result carries a per-plan
	// pmu.Profile attributing jittered-clock samples to (func, loop,
	// PC-bucket, buffer-state). Nil disables sampling at nil-check
	// cost.
	PMU *pmu.Config
	// TraceLabel prefixes simulator event run labels (typically the
	// benchmark name); the full label is "TraceLabel/Name@capacity".
	TraceLabel string
	// Machine overrides the default machine description.
	Machine *machine.Desc
}

// Traditional returns the paper's baseline configuration: classical
// optimization only (no predication, no loop collapsing), but — as in
// the paper — with profile-guided inlining, modulo scheduling and
// buffer scheduling ("In both cases ... modulo scheduling ... was
// performed, and loop bodies were scheduled into the loop buffer").
func Traditional(bufferOps int) Config {
	return Config{Name: "traditional", Inline: true, Modulo: true,
		BufferCapacity: bufferOps}
}

// Aggressive returns the paper's transformed configuration: hyperblock
// formation, peeling, collapsing, branch combining, promotion and
// modulo scheduling on top of the baseline.
func Aggressive(bufferOps int) Config {
	return Config{Name: "aggressive", Inline: true, LoopTransforms: true,
		Predication: true, Modulo: true, BufferCapacity: bufferOps}
}

// Reference is the interpretation of an original program: its result
// and the profile the profile-guided passes start from. It depends on
// the program alone, not on the config, so compiles of one program
// under several configs can share one. Compiles only read it.
type Reference struct {
	Result *interp.Result
	Prof   *profile.Profile
}

// RunReference interprets prog, profiling it.
func RunReference(prog *ir.Program) (*Reference, error) {
	prof := profile.New()
	res, err := interp.Run(prog, interp.Options{Profile: prof})
	if err != nil {
		return nil, err
	}
	return &Reference{Result: res, Prof: prof}, nil
}

// Compiled is a fully compiled program plus its reference behaviour.
// Buffer plans are made at run time, from the weights the program's
// own execution measures (Weights); copies of a Compiled share them.
type Compiled struct {
	Config Config
	Code   *sched.Code
	// Ref is the reference execution (interpreter, original program).
	// Compiles that share a Reference share this pointer.
	Ref *interp.Result
	// TransformedIR is the post-transformation, pre-scheduling program
	// (for predication statistics).
	TransformedIR *ir.Program

	// Stats reports what the compiler did.
	Stats PassStats

	weights *weightsMemo
}

// weightsMemo holds a compile's loop weights once an execution has
// measured them: a few numbers per loop, the same from every execution
// of the compile.
type weightsMemo struct {
	mu sync.Mutex
	w  vliw.Weights
}

// PassStats reports compiler activity.
type PassStats struct {
	OrigOps       int
	FinalOps      int
	Inlined       int
	Peeled        int
	Unrolled      int
	Collapsed     int
	Converted     int
	Combined      int
	Promoted      int
	Speculated    int
	CLoops        int
	ModuloKernels int
	// ProvenKernels counts modulo kernels whose II the exact backend
	// proved minimal (always 0 for the heuristic backend).
	ProvenKernels int
	// SchedFallbacks counts loops where the exact backend's search
	// budget died and the heuristic schedule was used unproven.
	SchedFallbacks int
	// SchedNodes totals exact-search nodes expended across all loops.
	SchedNodes int64
	// MaxLiveRegs is the worst-case register pressure over all
	// functions after transformation (reported against the machine's
	// 64 architected registers; virtual registers are not allocated,
	// see DESIGN.md).
	MaxLiveRegs int
}

// Compile runs the full pipeline on (a clone of) prog.
func Compile(prog *ir.Program, cfg Config) (*Compiled, error) {
	return CompileWithReference(prog, cfg, func() (*Reference, error) {
		return RunReference(prog)
	})
}

// CompileWithReference is Compile with the reference execution of prog
// supplied by ref, which is called once, inside the compile's
// "reference-run" span. Callers compiling one program under several
// configs pass a memoized ref, so the program is interpreted once and
// the span shows the interpretation in whichever compile ran it.
func CompileWithReference(prog *ir.Program, cfg Config, ref func() (*Reference, error)) (*Compiled, error) {
	if cfg.Machine == nil {
		cfg.Machine = machine.Default()
	}
	if cfg.BufferCapacity == 0 {
		cfg.BufferCapacity = 256
	}
	if verify.Forced() {
		cfg.Verify = true
	}
	var exact *optimal.Scheduler
	switch cfg.SchedBackend {
	case "", "heuristic":
	case "optimal":
		exact = optimal.New(optimal.Options{Obs: cfg.Obs})
		cfg.Verify = true
	default:
		return nil, fmt.Errorf("%s: unknown scheduler backend %q", cfg.Name, cfg.SchedBackend)
	}
	c := &Compiled{Config: cfg, weights: &weightsMemo{}}
	c.Stats.OrigOps = prog.OpCount()

	// Root span for the whole compile; phase children carry IR-size
	// deltas. All span calls are nil no-ops when cfg.Obs is nil.
	root := cfg.Obs.StartSpan("compile")
	root.SetAttr("config", cfg.Name)
	root.SetInt("orig_ops", c.Stats.OrigOps)
	defer root.End()
	cfg.Obs.Counter("compile.total").Inc()

	// Phase checkpoint: re-derive the invariants the preceding phase
	// must have preserved (see internal/verify); any violation aborts
	// the compile instead of surfacing as a wrong figure.
	ck := func(phase string, p *ir.Program) error {
		if !cfg.Verify {
			return nil
		}
		if err := verify.AsError(verify.Program(phase, p)); err != nil {
			return fmt.Errorf("%s: %s: %w", cfg.Name, phase, err)
		}
		return nil
	}
	if err := ck("input", prog); err != nil {
		return nil, err
	}

	// Reference execution + initial profile on the original program.
	sp := root.Child("reference-run")
	r, err := ref()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", cfg.Name, err)
	}
	c.Ref = r.Result
	prof0 := r.Prof

	p := prog.Clone()
	// Seed block weights from the original-program profile so the
	// control transformations can make profile-guided decisions
	// (inlining and the later passes preserve/copy weights).
	prof0.ApplyWeights(p)

	if cfg.Inline {
		sp = root.Child("inline")
		c.Stats.Inlined = inline.Apply(p, prof0, inline.Options{})
		sp.SetInt("inlined", c.Stats.Inlined)
		sp.SetInt("ops_after", p.OpCount())
		sp.End()
		if err := ck("post-inline", p); err != nil {
			return nil, err
		}
	}
	sp = root.Child("opt")
	sp.SetInt("ops_before", p.OpCount())
	opt.OptimizeSpans(p, sp)
	sp.SetInt("ops_after", p.OpCount())
	sp.End()
	if err := ck("post-opt", p); err != nil {
		return nil, err
	}

	// Control transformations interleave: if-converting an inner loop
	// with internal control flow turns it into a single block, which
	// can unlock collapsing of its parent, which can expose further
	// conversion. Iterate to a fixpoint (bounded).
	if cfg.LoopTransforms || cfg.Predication {
		sp = root.Child("transform")
		sp.SetInt("ops_before", p.OpCount())
		for round := 0; round < 4; round++ {
			changed := 0
			for _, name := range p.Order {
				f := p.Funcs[name]
				if cfg.LoopTransforms {
					if !cfg.DisablePeel {
						n := looptrans.PeelAll(f, looptrans.Options{})
						c.Stats.Peeled += n
						changed += n
					}
					if !cfg.DisableCollapse {
						n := looptrans.CollapseAll(f, looptrans.Options{})
						c.Stats.Collapsed += n
						changed += n
					}
					if !cfg.DisableUnroll {
						n := looptrans.UnrollAll(f, looptrans.Options{})
						c.Stats.Unrolled += n
						changed += n
					}
				}
				if cfg.Predication {
					n := hyperblock.ConvertLoops(f, hyperblock.Options{})
					c.Stats.Converted += n
					changed += n
				}
			}
			if changed == 0 {
				break
			}
		}
		if cfg.Predication {
			for _, name := range p.Order {
				f := p.Funcs[name]
				if !cfg.DisableCombine {
					c.Stats.Combined += hyperblock.CombineExits(f)
				}
				if !cfg.DisablePromote {
					c.Stats.Promoted += predicate.Promote(f)
					c.Stats.Speculated += predicate.SpeculateLoads(f)
				}
			}
		}
		opt.OptimizeSpans(p, sp)
		sp.SetInt("ops_after", p.OpCount())
		sp.SetInt("peeled", c.Stats.Peeled)
		sp.SetInt("collapsed", c.Stats.Collapsed)
		sp.SetInt("converted", c.Stats.Converted)
		sp.SetInt("promoted", c.Stats.Promoted)
		sp.End()
		if err := ck("post-transform", p); err != nil {
			return nil, err
		}
	}
	sp = root.Child("cloopify")
	for _, name := range p.Order {
		f := p.Funcs[name]
		c.Stats.CLoops += looptrans.CLoopifyAll(f)
		looptrans.MarkLoopBacks(f)
	}
	sp.SetInt("cloops", c.Stats.CLoops)
	sp.End()

	if err := p.Verify(); err != nil {
		return nil, fmt.Errorf("%s: transformed program invalid: %w", cfg.Name, err)
	}
	if err := ck("post-cloop", p); err != nil {
		return nil, err
	}

	// A verifying compile interprets the transformed program and checks
	// it still computes the reference behaviour, so a miscompile is
	// caught at the transforms; every compile's simulations check it
	// again on the scheduled code.
	if cfg.Verify {
		sp = root.Child("transformed-check")
		tres, err := interp.Run(p, interp.Options{})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: transformed program run: %w", cfg.Name, err)
		}
		if tres.Ret != c.Ref.Ret || !bytes.Equal(tres.Mem, c.Ref.Mem) {
			return nil, fmt.Errorf("%s: transformations changed program behaviour", cfg.Name)
		}
	}
	c.TransformedIR = p.Clone()
	c.Stats.FinalOps = p.OpCount()
	for _, name := range p.Order {
		if ml := opt.MaxLive(p.Funcs[name]); ml > c.Stats.MaxLiveRegs {
			c.Stats.MaxLiveRegs = ml
		}
	}

	// Schedule (may rewrite pipelined loop counters inside p).
	sp = root.Child("schedule")
	sopts := sched.Options{EnableModulo: cfg.Modulo, Span: sp}
	if exact != nil {
		sopts.Backend = exact
	}
	code, err := sched.Schedule(p, cfg.Machine, sopts)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	c.Code = code
	if cfg.Verify {
		if err := verify.AsError(verify.Code("post-sched", code)); err != nil {
			return nil, fmt.Errorf("%s: post-sched: %w", cfg.Name, err)
		}
	}
	for _, fc := range code.Funcs {
		for _, sec := range fc.Sections {
			if sec.Kind == sched.KindKernel {
				c.Stats.ModuloKernels++
				if sec.Proven {
					c.Stats.ProvenKernels++
				}
			}
		}
	}
	if exact != nil {
		st := exact.Stats()
		c.Stats.SchedFallbacks = int(st.Fallbacks)
		c.Stats.SchedNodes = st.Nodes
	}

	root.SetInt("final_ops", c.Stats.FinalOps)
	return c, nil
}

// Run executes the compiled program on the cycle simulator with the
// configured buffer capacity and checks its output against the
// reference execution.
func (c *Compiled) Run() (*vliw.Result, error) { return c.RunWithBuffer(c.Config.BufferCapacity) }

// RunWithBuffer plans the buffer for capacity and runs (the schedule
// itself is buffer-size independent). A run whose Obs has a
// cycle-level event ring accounts live (vliw.Run), planning from the
// compile's weights; any other run is a one-capacity RunSweep.
func (c *Compiled) RunWithBuffer(capacity int) (*vliw.Result, error) {
	if c.Config.Obs.SimRing() == nil {
		rs, err := c.RunSweep([]int{capacity})
		if err != nil {
			return nil, err
		}
		return rs[0], nil
	}
	w, err := c.Weights()
	if err != nil {
		return nil, err
	}
	plan, err := c.plan(w, capacity)
	if err != nil {
		return nil, err
	}
	res, err := vliw.Run(c.Code, plan, vliw.Options{Obs: c.Config.Obs,
		TraceLabel: c.label(capacity), PMU: c.Config.PMU})
	if err != nil {
		return nil, fmt.Errorf("%s: simulation: %w", c.Config.Name, err)
	}
	if err := c.check(res.Ret, res.Mem); err != nil {
		return nil, err
	}
	return res, nil
}

// RunSweep executes the program once, plan-free (vliw.Execute), checks
// it against the reference, plans the buffer at every capacity from
// the execution's loop weights and folds each plan over the
// execution's trace: a Figure 7 sweep costs one simulation instead of
// len(capacities). Results come back in capacity order and carry no
// cycle-level events.
func (c *Compiled) RunSweep(capacities []int) ([]*vliw.Result, error) {
	x, err := c.execute(c.Config.PMU)
	if err != nil {
		return nil, err
	}
	w, err := c.Weights()
	if err != nil {
		return nil, err
	}
	results := make([]*vliw.Result, len(capacities))
	for i, capacity := range capacities {
		plan, err := c.plan(w, capacity)
		if err != nil {
			return nil, err
		}
		if results[i], err = x.Fold(plan, c.label(capacity)); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Config.Name, err)
		}
	}
	return results, nil
}

// Weights returns the compile's loop weights, executing the program
// plan-free first if no run has measured them yet.
func (c *Compiled) Weights() (vliw.Weights, error) {
	c.weights.mu.Lock()
	w := c.weights.w
	c.weights.mu.Unlock()
	if w != nil {
		return w, nil
	}
	x, err := c.execute(nil)
	if err != nil {
		return nil, err
	}
	return x.Weights(), nil
}

// execute runs the program plan-free with pmu sampling (nil: none),
// checks it against the reference and keeps its loop weights.
func (c *Compiled) execute(pmu *pmu.Config) (*vliw.Execution, error) {
	x, err := vliw.Execute(c.Code, vliw.Options{Obs: c.Config.Obs, PMU: pmu})
	if err != nil {
		return nil, fmt.Errorf("%s: simulation: %w", c.Config.Name, err)
	}
	if err := c.check(x.Ret, x.Mem); err != nil {
		return nil, err
	}
	c.weights.mu.Lock()
	if c.weights.w == nil {
		c.weights.w = x.Weights()
	}
	c.weights.mu.Unlock()
	return x, nil
}

// plan assigns loops to a capacity-op buffer by the weights w; a
// verifying compile checks the plan.
func (c *Compiled) plan(w vliw.Weights, capacity int) (*vliw.BufferPlan, error) {
	plan := loopbuffer.Plan(c.Code, w, capacity)
	if c.Config.Verify {
		if err := verify.AsError(verify.Plan("bufplan", c.Code, plan)); err != nil {
			return nil, fmt.Errorf("%s: %w", c.Config.Name, err)
		}
	}
	return plan, nil
}

// label names a run at capacity in events and profiles (empty when the
// compile has neither).
func (c *Compiled) label(capacity int) string {
	if c.Config.Obs == nil && c.Config.PMU == nil {
		return ""
	}
	return fmt.Sprintf("%s/%s@%d", c.Config.TraceLabel, c.Config.Name, capacity)
}

// check compares a simulation's return value and final memory with the
// reference execution's.
func (c *Compiled) check(ret int64, mem []byte) error {
	if ret != c.Ref.Ret {
		return fmt.Errorf("%s: simulated return %d != reference %d", c.Config.Name, ret, c.Ref.Ret)
	}
	if !bytes.Equal(mem, c.Ref.Mem) {
		return fmt.Errorf("%s: simulated memory differs from reference", c.Config.Name)
	}
	return nil
}
