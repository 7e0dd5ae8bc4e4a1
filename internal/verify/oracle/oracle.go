// Package oracle cross-checks the compile pipeline end to end: a
// generated program is compiled at every optimization level (with the
// internal/verify phase checkpoints enabled), executed on the VLIW
// cycle simulator at several buffer capacities, and every execution's
// return value and final memory must match the interpreter reference.
// A disagreement at any level localizes a miscompile to the passes
// that level enables.
//
// The same runs check the simulator's executor contracts, the ones the
// reproduced fetch statistics rest on:
//
//   - interp vs VLIW: return value and final memory;
//   - fast vs interpretive: live runs (vliw.Run, event ring on) on the
//     region fast path and on the interpretive per-bundle path
//     (vliw.Options.NoFastPath) agree on return value, memory, Stats
//     with per-loop splits, the cycle-level event stream and the PMU
//     attribution;
//   - fold vs live: every capacity's plan and an empty plan, folded over
//     one plan-free execution (vliw.Execute) on either path, sampled or
//     not, report the live run's return value, memory and Stats, and
//     when sampled its PMU attribution. The live runs sample, so the
//     unsampled folds also pin that sampling leaves Stats unchanged.
//
// An error names the level, the contract and, where it has one, the
// buffer size.
package oracle

import (
	"bytes"
	"fmt"
	"reflect"

	"lpbuf/internal/core"
	"lpbuf/internal/interp"
	"lpbuf/internal/ir"
	"lpbuf/internal/loopbuffer"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/sched"
	"lpbuf/internal/vliw"
)

// BufferSizes are the capacities each compiled level is simulated at
// (a re-planned buffer assignment is itself checkpointed).
var BufferSizes = []int{16, 64, 256}

// The corpus's generated programs run for at most a few hundred
// cycles, so the contracts sample every few cycles and keep a ring
// that holds every event of such a run. A longer run (a fuzzed seed)
// still compares its event total and the retained tail.
const (
	samplePeriod = 7
	eventRing    = 512
)

// Levels returns the optimization ladder: each rung enables strictly
// more of the pipeline, so a first-failing level implicates its new
// passes.
func Levels() []core.Config {
	o0 := core.Config{Name: "O0"} // schedule only
	o1 := core.Traditional(256)   // + inline + modulo
	o1.Name = "O1"
	o2 := core.Aggressive(256) // + transforms + predication, no modulo
	o2.Name = "O2"
	o2.Modulo = false
	o3 := core.Aggressive(256) // full pipeline
	o3.Name = "O3"
	return []core.Config{o0, o1, o2, o3}
}

// Check compiles prog at every level and asserts interpreter, VLIW
// simulation, and architectural side effects all agree. The returned
// error names the first level and buffer size that diverged.
func Check(prog *ir.Program) error { return CheckWith(prog, "") }

// CheckWith is Check with an explicit modulo-scheduler backend
// ("heuristic" or "optimal"; "" = default), so the differential
// harness and fuzzer exercise exact-backend miscompiles through the
// same oracle.
func CheckWith(prog *ir.Program, backend string) error {
	ref, err := interp.Run(prog, interp.Options{MaxOps: 1 << 22})
	if err != nil {
		return fmt.Errorf("reference interp: %w", err)
	}
	for _, cfg := range Levels() {
		cfg.Verify = true
		cfg.SchedBackend = backend
		c, err := core.Compile(prog.Clone(), cfg)
		if err != nil {
			return fmt.Errorf("%s: compile: %w", cfg.Name, err)
		}
		// core compares its runs against its own reference execution;
		// compare against ours too so a bug in core's internal
		// reference plumbing cannot mask a miscompile.
		runs, err := c.RunSweep(BufferSizes)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
		}
		if runs[0].Ret != ref.Ret {
			return fmt.Errorf("%s: vliw ret %d != interp ret %d", cfg.Name, runs[0].Ret, ref.Ret)
		}
		if !bytes.Equal(runs[0].Mem, ref.Mem) {
			return fmt.Errorf("%s: vliw memory differs from interp", cfg.Name)
		}
		w, err := c.Weights()
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name, err)
		}
		// Every capacity's plan, then an empty plan, so a plan that
		// streams a loop is always checked beside one that plans nothing.
		plans := make([]*vliw.BufferPlan, len(BufferSizes)+1)
		live := make([]*vliw.Result, len(plans))
		for i := range plans {
			plans[i] = &vliw.BufferPlan{Capacity: 0}
			if i < len(BufferSizes) {
				plans[i] = loopbuffer.Plan(c.Code, w, BufferSizes[i])
			}
			if live[i], err = checkFastPath(c.Code, plans[i]); err != nil {
				return fmt.Errorf("%s/buf%d: fast vs interpretive: %w", cfg.Name, plans[i].Capacity, err)
			}
		}
		for i, r := range runs {
			if err := sameStats("core fold", "live", r.Stats, live[i].Stats); err != nil {
				return fmt.Errorf("%s/buf%d: fold vs live: %w", cfg.Name, plans[i].Capacity, err)
			}
		}
		if err := checkFolds(c.Code, plans, live); err != nil {
			return fmt.Errorf("%s: fold vs live: %w", cfg.Name, err)
		}
	}
	return nil
}

// pmuConfig is the contracts' sampling clock.
var pmuConfig = &pmu.Config{Period: samplePeriod, Seed: 1}

// checkFastPath runs plan live on the region fast path and on the
// interpretive path, each with the cycle-level event ring and PMU
// sampling on, and requires identical results, event streams and
// profiles. It returns the fast path's result.
func checkFastPath(code *sched.Code, plan *vliw.BufferPlan) (*vliw.Result, error) {
	run := func(noFast bool) (*vliw.Result, *obs.Obs, error) {
		o := obs.New(obs.Config{SimEvents: true, SimRingSize: eventRing})
		res, err := vliw.Run(code, plan, vliw.Options{Obs: o, TraceLabel: "oracle",
			NoFastPath: noFast, PMU: pmuConfig})
		return res, o, err
	}
	fast, fastObs, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("fast path: %w", err)
	}
	slow, slowObs, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("interpretive path: %w", err)
	}
	if err := sameResult("fast", "interpretive", fast, slow); err != nil {
		return nil, err
	}
	if !fast.Profile.Equal(slow.Profile) {
		return nil, fmt.Errorf("profiles differ: %d samples (fast) vs %d (interpretive)",
			fast.Profile.Total(), slow.Profile.Total())
	}
	if ft, st := fastObs.Sim.Total(), slowObs.Sim.Total(); ft != st {
		return nil, fmt.Errorf("event totals %d (fast) != %d (interpretive)", ft, st)
	}
	fe, se := fastObs.Sim.Events(), slowObs.Sim.Events()
	if len(fe) != len(se) {
		return nil, fmt.Errorf("retained events %d (fast) != %d (interpretive)", len(fe), len(se))
	}
	for i := range fe {
		if fe[i] != se[i] {
			return nil, fmt.Errorf("event %d: %+v (fast) != %+v (interpretive)", i, fe[i], se[i])
		}
	}
	return fast, nil
}

// checkFolds executes the program plan-free on both paths, with and
// without sampling, and requires every plan's fold to report the live
// run's result (live[i] for plans[i]) and, when sampled, its PMU
// attribution.
func checkFolds(code *sched.Code, plans []*vliw.BufferPlan, live []*vliw.Result) error {
	for _, noFast := range []bool{false, true} {
		for _, sampled := range []bool{false, true} {
			name := "fast"
			if noFast {
				name = "interpretive"
			}
			opts := vliw.Options{NoFastPath: noFast}
			if sampled {
				name, opts.PMU = "sampled "+name, pmuConfig
			}
			x, err := vliw.Execute(code, opts)
			if err != nil {
				return fmt.Errorf("%s execution: %w", name, err)
			}
			for i, plan := range plans {
				r, err := x.Fold(plan, "oracle")
				if err != nil {
					return fmt.Errorf("buf%d: %s fold: %w", plan.Capacity, name, err)
				}
				if err := sameResult(name+" fold", "live", r, live[i]); err != nil {
					return fmt.Errorf("buf%d: %w", plan.Capacity, err)
				}
				if sampled && !r.Profile.Equal(live[i].Profile) {
					return fmt.Errorf("buf%d: profiles differ: %d samples (%s fold) vs %d (live)",
						plan.Capacity, r.Profile.Total(), name, live[i].Profile.Total())
				}
			}
		}
	}
	return nil
}

// sameResult reports the first difference between two runs' return
// value, final memory and Stats.
func sameResult(gotName, wantName string, got, want *vliw.Result) error {
	if got.Ret != want.Ret {
		return fmt.Errorf("ret %d (%s) != %d (%s)", got.Ret, gotName, want.Ret, wantName)
	}
	if !bytes.Equal(got.Mem, want.Mem) {
		return fmt.Errorf("final memory differs (%s vs %s)", gotName, wantName)
	}
	return sameStats(gotName, wantName, got.Stats, want.Stats)
}

// sameStats reports the first difference between two runs' Stats: a
// run total, or one buffered loop's counters.
func sameStats(gotName, wantName string, got, want vliw.Stats) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	for k, wl := range want.Loops {
		if gl := got.Loops[k]; gl == nil || *gl != *wl {
			return fmt.Errorf("loop %s: %+v (%s) != %+v (%s)", k, gl, gotName, *wl, wantName)
		}
	}
	if len(got.Loops) != len(want.Loops) {
		return fmt.Errorf("%d buffered loops (%s) != %d (%s)",
			len(got.Loops), gotName, len(want.Loops), wantName)
	}
	got.Loops, want.Loops = nil, nil
	return fmt.Errorf("stats %+v (%s) != %+v (%s)", got, gotName, want, wantName)
}
