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
//   - fast vs interpretive: the region fast path and the interpretive
//     per-bundle path (vliw.Options.NoFastPath) agree on return value,
//     memory, Stats with per-loop splits, and the cycle-level event
//     stream; without an event ring both report the ring-on results;
//   - batch vs solo: one vliw.RunBatch over every capacity's plan and
//     an empty plan reports each plan's solo Stats;
//   - PMU: sampling leaves Stats unchanged, and both paths take the
//     same samples.
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
		// Every batch ends with an empty plan, so accounts that stream a
		// loop always share it with one that plans nothing.
		plans := make([]*vliw.BufferPlan, len(BufferSizes)+1)
		solo := make([]vliw.Stats, len(BufferSizes)+1)
		for i, sz := range BufferSizes {
			// core already compares each run against its own reference
			// execution; compare against ours too so a bug in core's
			// internal reference plumbing cannot mask a miscompile.
			res, err := c.RunWithBuffer(sz)
			if err != nil {
				return fmt.Errorf("%s/buf%d: %w", cfg.Name, sz, err)
			}
			if res.Ret != ref.Ret {
				return fmt.Errorf("%s/buf%d: vliw ret %d != interp ret %d",
					cfg.Name, sz, res.Ret, ref.Ret)
			}
			if !bytes.Equal(res.Mem, ref.Mem) {
				return fmt.Errorf("%s/buf%d: vliw memory differs from interp", cfg.Name, sz)
			}
			plans[i] = loopbuffer.Plan(c.Code, c.Prof, sz)
			solo[i] = res.Stats
			if err := checkFastPath(c.Code, plans[i]); err != nil {
				return fmt.Errorf("%s/buf%d: fast vs interpretive: %w", cfg.Name, sz, err)
			}
		}
		empty := len(BufferSizes)
		plans[empty] = &vliw.BufferPlan{Capacity: 0}
		res, err := vliw.Run(c.Code, plans[empty], vliw.Options{})
		if err != nil {
			return fmt.Errorf("%s/buf0: %w", cfg.Name, err)
		}
		solo[empty] = res.Stats
		if err := checkBatch(c.Code, plans, solo); err != nil {
			return fmt.Errorf("%s: batch vs solo: %w", cfg.Name, err)
		}
		if err := checkPMU(c.Code, plans, solo); err != nil {
			return fmt.Errorf("%s: pmu: %w", cfg.Name, err)
		}
	}
	return nil
}

// checkFastPath runs plan on the region fast path and on the
// interpretive path, each with the cycle-level event ring on, and
// requires identical results and event streams. Both paths also run
// without a ring, as sweeps do, and must report the ring-on results.
func checkFastPath(code *sched.Code, plan *vliw.BufferPlan) error {
	run := func(noFast bool) (*vliw.Result, *obs.Obs, error) {
		o := obs.New(obs.Config{SimEvents: true, SimRingSize: eventRing})
		res, err := vliw.Run(code, plan, vliw.Options{Obs: o, TraceLabel: "oracle",
			NoFastPath: noFast})
		return res, o, err
	}
	fast, fastObs, err := run(false)
	if err != nil {
		return fmt.Errorf("fast path: %w", err)
	}
	slow, slowObs, err := run(true)
	if err != nil {
		return fmt.Errorf("interpretive path: %w", err)
	}
	if err := sameResult("fast", "interpretive", fast, slow); err != nil {
		return err
	}
	for _, noFast := range []bool{false, true} {
		name, want := "ring-free fast", fast
		if noFast {
			name, want = "ring-free interpretive", slow
		}
		res, err := vliw.Run(code, plan, vliw.Options{NoFastPath: noFast})
		if err != nil {
			return fmt.Errorf("%s path: %w", name, err)
		}
		if err := sameResult(name, "ring-on", res, want); err != nil {
			return err
		}
	}
	if ft, st := fastObs.Sim.Total(), slowObs.Sim.Total(); ft != st {
		return fmt.Errorf("event totals %d (fast) != %d (interpretive)", ft, st)
	}
	fe, se := fastObs.Sim.Events(), slowObs.Sim.Events()
	if len(fe) != len(se) {
		return fmt.Errorf("retained events %d (fast) != %d (interpretive)", len(fe), len(se))
	}
	for i := range fe {
		if fe[i] != se[i] {
			return fmt.Errorf("event %d: %+v (fast) != %+v (interpretive)", i, fe[i], se[i])
		}
	}
	return nil
}

// checkBatch runs every plan in one batch and requires each plan's
// solo Stats.
func checkBatch(code *sched.Code, plans []*vliw.BufferPlan, solo []vliw.Stats) error {
	rs, err := vliw.RunBatch(code, plans, vliw.BatchOptions{})
	if err != nil {
		return err
	}
	for i, r := range rs {
		if err := sameStats("batch", "solo", r.Stats, solo[i]); err != nil {
			return fmt.Errorf("buf%d: %w", plans[i].Capacity, err)
		}
	}
	return nil
}

// checkPMU runs the plans' batch with sampling on, on both paths: the
// Stats must be the unsampled solo ones and the two paths' profiles
// must be equal.
func checkPMU(code *sched.Code, plans []*vliw.BufferPlan, solo []vliw.Stats) error {
	run := func(noFast bool) ([]*vliw.Result, error) {
		return vliw.RunBatch(code, plans, vliw.BatchOptions{Options: vliw.Options{
			NoFastPath: noFast, PMU: &pmu.Config{Period: samplePeriod, Seed: 1}}})
	}
	fast, err := run(false)
	if err != nil {
		return fmt.Errorf("fast path: %w", err)
	}
	slow, err := run(true)
	if err != nil {
		return fmt.Errorf("interpretive path: %w", err)
	}
	for i := range fast {
		if err := sameStats("sampled fast", "unsampled", fast[i].Stats, solo[i]); err != nil {
			return fmt.Errorf("buf%d: %w", plans[i].Capacity, err)
		}
		if err := sameStats("sampled interpretive", "unsampled", slow[i].Stats, solo[i]); err != nil {
			return fmt.Errorf("buf%d: %w", plans[i].Capacity, err)
		}
		if fp, sp := fast[i].Profile, slow[i].Profile; !fp.Equal(sp) {
			return fmt.Errorf("buf%d: profiles differ: %d samples (fast) vs %d (interpretive)",
				plans[i].Capacity, fp.Total(), sp.Total())
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
