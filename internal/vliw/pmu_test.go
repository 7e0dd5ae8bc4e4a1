package vliw_test

import (
	"testing"

	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/vliw"
)

// TestPMUSamplingDeterministic pins the reproducibility guarantee: two
// runs of the same program under the same sampling config take
// identical samples, and a different seed takes different ones.
func TestPMUSamplingDeterministic(t *testing.T) {
	prog := loopProgram(2000)
	code, plan := compile(t, prog, 256, false)
	run := func(seed uint64) *pmu.Profile {
		res, err := vliw.Run(code, plan, vliw.Options{
			PMU: &pmu.Config{Period: 256, Seed: seed},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Profile == nil {
			t.Fatal("PMU enabled but no profile returned")
		}
		return res.Profile
	}
	a, b := run(1), run(1)
	if a.Total() == 0 {
		t.Fatal("no samples taken over 2000 trips at period 256")
	}
	if !a.Equal(b) {
		t.Fatalf("same seed diverged: %d vs %d samples", a.Total(), b.Total())
	}
	if c := run(99); a.Equal(c) && a.Total() == c.Total() {
		// Equal attribution with identical totals under a different
		// jitter stream would mean the seed is ignored.
		t.Fatalf("seeds 1 and 99 produced identical profiles (%d samples)", a.Total())
	}
}

// TestPMUFastPathDifferential pins the sampling contract across the
// executors: the region-replay fast path reconstructs exactly the
// samples the interpretive path takes, and each plan folded over a
// sampled plan-free execution, on either path, attributes them as its
// live run does.
func TestPMUFastPathDifferential(t *testing.T) {
	prog := loopProgram(3000)
	code, plan := compile(t, prog, 256, false)
	plans := []*vliw.BufferPlan{plan, nil, {Capacity: 1}}
	labels := []string{"p/replay@256", "p/nil@0", "p/tiny@1"}
	cfg := &pmu.Config{Period: 512, Seed: 3}
	var folds [2][]*vliw.Result
	for i, noFast := range []bool{false, true} {
		x, err := vliw.Execute(code, vliw.Options{NoFastPath: noFast, PMU: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if folds[i], err = x.Fold(plans, labels); err != nil {
			t.Fatal(err)
		}
	}
	var fast []*vliw.Result
	for i, plan := range plans {
		var live [2]*vliw.Result
		for j, noFast := range []bool{false, true} {
			r, err := vliw.Run(code, plan, vliw.Options{NoFastPath: noFast, PMU: cfg, TraceLabel: labels[i]})
			if err != nil {
				t.Fatal(err)
			}
			live[j] = r
		}
		sp, fp := live[1].Profile, live[0].Profile
		if sp == nil || fp == nil {
			t.Fatalf("plan %d: missing profile (slow %v, fast %v)", i, sp != nil, fp != nil)
		}
		if sp.Total() == 0 {
			t.Fatalf("plan %d: no samples", i)
		}
		if !sp.Equal(fp) {
			t.Fatalf("plan %d: interpretive and fast-path samples differ (%d vs %d)",
				i, sp.Total(), fp.Total())
		}
		for j, rs := range folds {
			if r := rs[i]; !r.Profile.Equal(fp) {
				t.Fatalf("plan %d: fold of execution %d samples %d, live %d",
					i, j, r.Profile.Total(), fp.Total())
			}
		}
		fast = append(fast, live[0])
	}
	// The replay plan must attribute samples to the replay state; the
	// nil plan can only ever see memory.
	var sawReplay bool
	for _, r := range fast[0].Profile.Samples() {
		if r.State == "replay" {
			sawReplay = true
		}
	}
	if !sawReplay {
		t.Fatal("buffered plan took no replay-state samples")
	}
	for _, r := range fast[1].Profile.Samples() {
		if r.State != "memory" {
			t.Fatalf("nil-plan sample in state %q", r.State)
		}
	}
}

// TestPMUBatchPerPlanProfiles: one sampled execution yields one
// profile per plan of the batch folded over it, labeled,
// capacity-stamped, with the final cycle count.
func TestPMUBatchPerPlanProfiles(t *testing.T) {
	prog := loopProgram(1500)
	code, plan := compile(t, prog, 256, false)
	labels := []string{"bench/a@256", "bench/b@0"}
	x, err := vliw.Execute(code, vliw.Options{PMU: &pmu.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := x.Fold([]*vliw.BufferPlan{plan, nil}, labels)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		p := r.Profile
		if p == nil {
			t.Fatalf("plan %d: no profile", i)
		}
		if p.Label != labels[i] {
			t.Fatalf("plan %d: label %q, want %q", i, p.Label, labels[i])
		}
		if p.Cycles != r.Stats.Cycles {
			t.Fatalf("plan %d: profile cycles %d != stats cycles %d", i, p.Cycles, r.Stats.Cycles)
		}
	}
	if results[0].Profile.Capacity != 256 || results[1].Profile.Capacity != 0 {
		t.Fatalf("capacities %d/%d, want 256/0",
			results[0].Profile.Capacity, results[1].Profile.Capacity)
	}
	// Disabled PMU yields no profiles at all.
	x, err = vliw.Execute(code, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := x.Fold([]*vliw.BufferPlan{plan}, []string{""})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Profile != nil {
		t.Fatal("profile present with PMU disabled")
	}
}

// TestPMUFoldsIntoRegistry: an enabled batch run feeds the sample
// counter and per-run histogram of the wired registry.
func TestPMUFoldsIntoRegistry(t *testing.T) {
	prog := loopProgram(2000)
	code, plan := compile(t, prog, 256, false)
	reg := obs.NewRegistry()
	o := &obs.Obs{Reg: reg}
	res, err := vliw.Run(code, plan, vliw.Options{
		Obs: o, TraceLabel: "t", PMU: &pmu.Config{Period: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sim.pmu.samples"]; got != res.Profile.Total() {
		t.Fatalf("sim.pmu.samples = %d, want %d", got, res.Profile.Total())
	}
	h, ok := snap.Histograms["sim.pmu.samples_per_run"]
	if !ok || h.Count != 1 {
		t.Fatalf("sim.pmu.samples_per_run histogram missing or count != 1: %+v", h)
	}
}

// TestDisabledPMUZeroAlloc pins the sampling-off contract the same way
// TestDisabledObsAllocsDoNotScale pins the obs hooks: a nil PMU config
// must not add a single allocation regardless of cycle count.
func TestDisabledPMUZeroAlloc(t *testing.T) {
	run := func(trips int64) float64 {
		prog := loopProgram(trips)
		code, plan := compile(t, prog, 256, false)
		return minAllocs(func() {
			if _, err := vliw.Run(code, plan, vliw.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(100), run(3000)
	if large > small {
		t.Fatalf("allocations scale with cycle count: %v at 100 trips, %v at 3000", small, large)
	}
}

// BenchmarkSimEnabledPMU is the vliw-level cost probe of sampling at
// the default period (the cross-backend gate lives in the top-level
// BenchmarkSimsPerSecPMU).
func BenchmarkSimEnabledPMU(b *testing.B) {
	prog := loopProgram(1000)
	code, plan := compile(b, prog, 256, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vliw.Run(code, plan, vliw.Options{PMU: &pmu.Config{}}); err != nil {
			b.Fatal(err)
		}
	}
}
