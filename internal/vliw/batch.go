package vliw

import (
	"fmt"

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
// plan. What every plan counts alike — the ops bundles issue and
// nullify, and the redirects every account pays — is kept once per
// batch and added to each account at the end. The per-account work —
// buffer state, the buffer/memory split, plan-dependent penalties and
// events — runs only where plans can differ: on bundles some plan
// covers, while a residency is open, or when events are on. A loop
// trip every account handles alike is counted, not accounted (see
// runRegion). A Figure 7 buffer sweep — the same benchmark at 8 buffer
// sizes — becomes one simulation instead of eight, and costs about as
// much as one.

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
		code:      code,
		mem:       make([]byte, code.Prog.MemSize),
		opts:      opts.Options,
		fctx:      map[*sched.FuncCode]*funcCtx{},
		framePool: map[*sched.FuncCode][]*frame{},
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
	s.rings = ring != nil
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
	for _, g := range code.Prog.Globals {
		copy(s.mem[g.Offset:g.Offset+g.Size], g.Init)
	}
	entry := code.Funcs[code.Prog.Entry]
	if entry == nil {
		return nil, fmt.Errorf("vliw: no entry function %q", code.Prog.Entry)
	}
	ret, err := s.run(entry)
	if err != nil {
		return nil, err
	}
	reg := opts.Obs.Registry()
	results := make([]*Result, len(s.accts))
	for i, a := range s.accts {
		a.buf.flushResidency(s, a)
		a.stats.OpsIssued += s.shared.issued
		a.stats.OpsNullified += s.shared.nullified
		a.stats.BranchPenaltyCycles += s.shared.penalty
		a.penalty += s.shared.penalty
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
