package vliw_test

import (
	"testing"

	"lpbuf/internal/obs"
	"lpbuf/internal/vliw"
)

// minAllocs returns the fewest heap allocations one call of f makes
// over ten calls. The race detector adds allocations to a random
// subset of runs, so an average over a few runs can differ by one
// between two workloads that allocate alike; the minimum sheds them,
// while an allocation made on every trip shows in every run.
func minAllocs(f func()) float64 {
	least := testing.AllocsPerRun(1, f)
	for i := 1; i < 10; i++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestDisabledObsAllocsDoNotScale pins the acceptance criterion for
// the observability layer: with no Obs configured, the simulator's
// per-run allocations are identical at 100 and 3000 trips (30x the
// cycles). Any per-cycle or per-bundle allocation introduced by an
// instrumentation hook would make the large run allocate more.
func TestDisabledObsAllocsDoNotScale(t *testing.T) {
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

// BenchmarkSimDisabledObs measures the simulator hot loop with
// observability off — the configuration every correctness test and
// experiment sweep runs in. The b.ReportAllocs figure divided by
// b.N should stay flat as trips grow (per-run setup only, nothing
// per cycle).
func BenchmarkSimDisabledObs(b *testing.B) {
	prog := loopProgram(1000)
	code, plan := compile(b, prog, 256, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vliw.Run(code, plan, vliw.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEnabledObs is the same workload with metrics, spans and
// the sim event ring all enabled — the upper bound a -trace-out run
// pays.
func BenchmarkSimEnabledObs(b *testing.B) {
	prog := loopProgram(1000)
	code, plan := compile(b, prog, 256, false)
	o := obs.New(obs.Config{Metrics: true, Spans: true, SimEvents: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vliw.Run(code, plan, vliw.Options{Obs: o, TraceLabel: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
}
