package vliw

import (
	"fmt"
	"sync"

	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/sched"
)

// This file is the batched multi-sim engine. The observation it builds
// on: the simulator's architectural execution — register and memory
// values, control flow, guard outcomes, the one-bundle-per-tick issue
// clock — is completely independent of the loop-buffer plan. A plan
// only changes *accounting*: which fetches issue from the buffer, which
// redirects are predicted away, which per-loop counters advance.
// Redirect penalties never shift writebacks (they accumulate in each
// account's penalty, added to Cycles at the end), so N plans over the
// same code share one architectural execution bit for bit.
//
// RunBatch therefore executes the program once with one account per
// plan: per-bundle fetch bookkeeping, penalties, statistics and events
// fold through every account as each bundle issues. A Figure 7 buffer
// sweep — the same benchmark at 8 buffer sizes — becomes one simulation
// instead of eight.

// BatchOptions configure a batched run.
type BatchOptions struct {
	Options
	// Labels names each plan's run in emitted events (falls back to
	// Options.TraceLabel when shorter than the plan list or empty at an
	// index).
	Labels []string
	// FoldedStatsOnly skips all per-cycle event-ring emission (SimIssue,
	// SimRedirect, SimLoopRecord/Replay/Exit, SimCall/SimRet) while
	// keeping Stats and the post-run registry folding exact. Sweep
	// workloads are throughput-bound and nobody reads their per-cycle
	// rings; skipping emission removes the last per-bundle observability
	// cost from the hot path.
	FoldedStatsOnly bool
}

// RunBatch executes scheduled code once and accounts it under every
// buffer plan, returning one Result per plan (in order). The Results
// share the final memory image and return value — those are
// architectural — while Stats are per-plan.
func RunBatch(code *sched.Code, plans []*BufferPlan, opts BatchOptions) ([]*Result, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("vliw: RunBatch needs at least one buffer plan")
	}
	if w := wheelSize(code.Mach.Latency); w > wheelSlots {
		return nil, fmt.Errorf("vliw: latency table needs a %d-slot writeback wheel (max %d)", w, wheelSlots)
	}
	s := &sim{
		code: code,
		mem:  make([]byte, code.Prog.MemSize),
		opts: opts.Options,
		fctx: map[*sched.FuncCode]*funcCtx{},
	}
	if s.opts.MaxCycles == 0 {
		s.opts.MaxCycles = 4e9
	}
	if s.opts.MaxDepth == 0 {
		s.opts.MaxDepth = 256
	}
	ring := opts.Obs.SimRing()
	if opts.FoldedStatsOnly {
		ring = nil
	}
	if opts.PMU != nil {
		// One clock per batch: samples are plan-independent, so every
		// account profiles the same cycles of the shared execution.
		s.pmu = pmu.NewClock(*opts.PMU)
	}
	s.accts = make([]*account, len(plans))
	for i, plan := range plans {
		label := opts.TraceLabel
		if i < len(opts.Labels) && opts.Labels[i] != "" {
			label = opts.Labels[i]
		}
		a := &account{buf: newBufferState(plan), ring: ring, label: label}
		a.stats.Loops = map[string]*LoopStats{}
		if s.pmu != nil {
			capacity := 0
			if plan != nil {
				capacity = plan.Capacity
			}
			a.prof = pmu.NewProfile(label, capacity)
		}
		s.accts[i] = a
	}
	s.fromBuf = make([]bool, len(plans))
	s.lss = make([]*LoopStats, len(plans))
	var ar *arena
	if opts.Engine != nil {
		ar = opts.Engine.checkout()
		s.framePool = ar.framePool
		s.evScratch = ar.evScratch
	} else {
		s.framePool = map[*sched.FuncCode][]*frame{}
	}
	for _, g := range code.Prog.Globals {
		copy(s.mem[g.Offset:g.Offset+g.Size], g.Init)
	}
	entry := code.Funcs[code.Prog.Entry]
	if entry == nil {
		return nil, fmt.Errorf("vliw: no entry function %q", code.Prog.Entry)
	}
	ret, err := s.run(entry)
	if ar != nil {
		// Hand the (possibly grown) scratch back even on error; the
		// memory image is NOT pooled — Result.Mem escapes to callers.
		ar.evScratch = s.evScratch
		opts.Engine.checkin(ar)
	}
	if err != nil {
		return nil, err
	}
	reg := opts.Obs.Registry()
	results := make([]*Result, len(s.accts))
	for i, a := range s.accts {
		a.buf.flushResidency(s, a)
		a.stats.Cycles = s.now + a.penalty
		if reg != nil {
			foldStats(reg, &a.stats)
		}
		if a.prof != nil {
			a.prof.Cycles = a.stats.Cycles
			if reg != nil {
				reg.Counter("sim.pmu.samples").Add(a.prof.Total())
				reg.Histogram("sim.pmu.samples_per_run").Observe(a.prof.Total())
			}
		}
		results[i] = &Result{Mem: s.mem, Ret: ret, Stats: a.stats, Profile: a.prof}
	}
	return results, nil
}

// Engine pools per-sim scratch across runs: activation frames (keyed
// by callee) and the event-batch buffer. One Engine can back any
// number of concurrent RunBatch calls — each checks an arena out for
// the duration of its run — so a resident service shares warmed-up
// scratch across jobs process-wide. The memory image is deliberately
// not pooled: Result.Mem escapes to callers after the arena is checked
// back in.
type Engine struct {
	mu     sync.Mutex
	arenas []*arena
}

// NewEngine returns an empty engine; arenas materialize on demand.
func NewEngine() *Engine { return &Engine{} }

// arena is one simulation's reusable scratch.
type arena struct {
	framePool map[*sched.FuncCode][]*frame
	evScratch []obs.SimEvent
}

const (
	// maxArenas bounds how many idle arenas an engine retains (the
	// steady-state need is the peak number of concurrent sims).
	maxArenas = 16
	// maxArenaFuncs bounds one arena's frame pool across codes; past it
	// the pool is dropped wholesale rather than curated (frames are
	// cheap to rebuild, stale *FuncCode keys would pin dead schedules).
	maxArenaFuncs = 128
)

func (e *Engine) checkout() *arena {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.arenas); n > 0 {
		a := e.arenas[n-1]
		e.arenas = e.arenas[:n-1]
		return a
	}
	return &arena{framePool: map[*sched.FuncCode][]*frame{}}
}

func (e *Engine) checkin(a *arena) {
	if len(a.framePool) > maxArenaFuncs {
		a.framePool = map[*sched.FuncCode][]*frame{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.arenas) < maxArenas {
		e.arenas = append(e.arenas, a)
	}
}
