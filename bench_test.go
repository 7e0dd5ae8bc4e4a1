// Package lpbuf's top-level benches regenerate the paper's tables and
// figures (run with `go test -bench=. -benchmem`). Each bench reports
// the relevant headline metric via b.ReportMetric and prints the full
// table once, so a single -bench run reproduces the evaluation.
//
// All benches execute through the internal/runner job scheduler behind
// experiments.Suite: compiles and simulations are singleflighted and
// cached across the shared suite, and BenchmarkSuiteConcurrent
// additionally stresses the concurrent path end to end.
package lpbuf

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/experiments"
	"lpbuf/internal/interp"
	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/profile"
	"lpbuf/internal/sched"
)

// shared suite so compiled benchmarks are reused across benches.
var (
	suiteOnce sync.Once
	suiteInst *experiments.Suite
)

func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() { suiteInst = experiments.New() })
	return suiteInst
}

// BenchmarkFigure7Traditional regenerates the Figure 7(a) curves.
func BenchmarkFigure7Traditional(b *testing.B) {
	s := sharedSuite()
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure7("traditional", experiments.BufferSizes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig7("Figure 7(a): traditional", rows, experiments.BufferSizes))
	b.ReportMetric(avgAt(rows, 256), "%buffer@256")
	b.ReportMetric(avgAt(rows, 16), "%buffer@16")
}

// BenchmarkFigure7Aggressive regenerates the Figure 7(b) curves.
func BenchmarkFigure7Aggressive(b *testing.B) {
	s := sharedSuite()
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure7("aggressive", experiments.BufferSizes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig7("Figure 7(b): aggressive", rows, experiments.BufferSizes))
	b.ReportMetric(avgAt(rows, 256), "%buffer@256")
	b.ReportMetric(avgAt(rows, 16), "%buffer@16")
}

func avgAt(rows []experiments.Fig7Row, sz int) float64 {
	var sum float64
	for _, r := range rows {
		sum += r.Ratios[sz]
	}
	return 100 * sum / float64(len(rows))
}

// BenchmarkFigure8a regenerates the speedup / code size / fetch table.
func BenchmarkFigure8a(b *testing.B) {
	s := sharedSuite()
	var rows []experiments.Fig8aRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure8a()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig8a(rows))
	var sp float64
	for _, r := range rows {
		sp += r.Speedup
	}
	b.ReportMetric(sp/float64(len(rows)), "avg-speedup")
}

// BenchmarkFigure8b regenerates the normalized fetch-power table.
func BenchmarkFigure8b(b *testing.B) {
	s := sharedSuite()
	var rows []experiments.Fig8bRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure8b()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig8b(rows))
	var p float64
	for _, r := range rows {
		p += r.TransformedBuffered
	}
	b.ReportMetric(100*p/float64(len(rows)), "%power-transformed")
}

// BenchmarkFigure3 regenerates the predication characterization.
func BenchmarkFigure3(b *testing.B) {
	s := sharedSuite()
	var f3 *experiments.Fig3
	for i := 0; i < b.N; i++ {
		var err error
		f3, err = s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig3(f3))
	b.ReportMetric(float64(f3.MaxLiveMax), "max-live-preds")
}

// BenchmarkFigure5 regenerates the PostFilter buffer traces.
func BenchmarkFigure5(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		for _, sz := range []int{16, 32, 64} {
			f5, err := s.Figure5(sz)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Println(experiments.RenderFig5(f5))
			}
		}
	}
}

// BenchmarkHeadline regenerates the abstract's aggregates.
func BenchmarkHeadline(b *testing.B) {
	s := sharedSuite()
	var h *experiments.Headline
	for i := 0; i < b.N; i++ {
		var err error
		h, err = s.ComputeHeadline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderHeadline(h))
	b.ReportMetric(h.AvgSpeedup, "avg-speedup")
	b.ReportMetric(100*h.BufferIssueAggressive, "%buffer-transformed")
}

// BenchmarkSuiteConcurrent regenerates Figures 7/8a/8b and the
// headline concurrently on a fresh suite, reporting the runner's
// compile count (must stay at 22 — one per (bench, config) pair) and
// peak in-flight jobs. This is the benchmark-shaped version of the
// subsystem's -race stress test.
func BenchmarkSuiteConcurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewWithOptions(experiments.Options{Workers: 8})
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		launch := func(fn func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := fn(); err != nil {
					errs <- err
				}
			}()
		}
		launch(func() error { _, err := s.Figure7("traditional", experiments.BufferSizes); return err })
		launch(func() error { _, err := s.Figure7("aggressive", experiments.BufferSizes); return err })
		launch(func() error { _, err := s.Figure8a(); return err })
		launch(func() error { _, err := s.Figure8b(); return err })
		launch(func() error { _, err := s.ComputeHeadline(); return err })
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
		snap := s.Metrics()
		b.ReportMetric(float64(snap.CacheMisses), "compiles")
		b.ReportMetric(float64(snap.PeakInFlight), "peak-in-flight")
		b.ReportMetric(float64(snap.RunMisses), "simulations")
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed on the
// heaviest benchmark (useful when sizing longer runs).
func BenchmarkSimulatorThroughput(b *testing.B) {
	s := sharedSuite()
	var ops, cycles int64
	for i := 0; i < b.N; i++ {
		r, err := s.RunAt("g724enc", "aggressive", 256)
		if err != nil {
			b.Fatal(err)
		}
		ops = r.Stats.OpsIssued
		cycles = r.Stats.Cycles
	}
	b.ReportMetric(float64(ops), "sim-ops/run")
	b.ReportMetric(float64(cycles), "sim-cycles/run")
}

// BenchmarkInterp measures the IR interpreter as reference runs use it:
// each iteration interprets the 11 original Table 1 programs with
// profiling on. It reports ns per interpreted IR op and the IR ops of
// one iteration, a deterministic count.
func BenchmarkInterp(b *testing.B) {
	var progs []*ir.Program
	for _, bm := range suite.All() {
		progs = append(progs, bm.Build())
	}
	b.ResetTimer()
	var ops int64
	for i := 0; i < b.N; i++ {
		ops = 0
		for _, p := range progs {
			res, err := interp.Run(p, interp.Options{Profile: profile.New()})
			if err != nil {
				b.Fatal(err)
			}
			ops += res.Ops
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops*int64(b.N)), "ns/ir-op")
	b.ReportMetric(float64(ops), "ir-ops/run")
}

// BenchmarkModuloHeuristic measures heuristic modulo scheduling as
// compiles use it: each iteration schedules, with modulo on, a clone of
// the transformed IR of the 11 Table 1 programs in both configs. The
// 22 compiles and the clones stay outside the timer. It reports ns per
// pipelined kernel and the kernels of one iteration, a deterministic
// count.
func BenchmarkModuloHeuristic(b *testing.B) {
	var progs []*ir.Program
	for _, bm := range suite.All() {
		prog := bm.Build()
		ref := sync.OnceValues(func() (*core.Reference, error) {
			return core.RunReference(prog)
		})
		for _, cfg := range []core.Config{core.Traditional(256), core.Aggressive(256)} {
			c, err := core.CompileWithReference(prog, cfg, ref)
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, c.TransformedIR)
		}
	}
	m := machine.Default()
	clones := make([]*ir.Program, len(progs))
	kernels := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, p := range progs {
			clones[j] = p.Clone()
		}
		kernels = 0
		b.StartTimer()
		for _, p := range clones {
			code, err := sched.Schedule(p, m, sched.Options{EnableModulo: true})
			if err != nil {
				b.Fatal(err)
			}
			for _, fc := range code.Funcs {
				for _, sec := range fc.Sections {
					if sec.Kind == sched.KindKernel {
						kernels++
					}
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(kernels*b.N), "ns/kernel")
	b.ReportMetric(float64(kernels), "kernels/run")
}

// sweepsPerIter is how many full buffer sweeps one b.N iteration of
// the SimsPerSec pair runs. One sweep takes ~80-110 ms on a 2-core
// host, so a single-iteration sample (`make bench` runs -benchtime 1x)
// spans ~0.6-0.9 s instead of one sweep's worth of scheduler and GC
// noise. The pair's ns/op, B/op and allocs/op cover all the sweeps.
const sweepsPerIter = 8

// BenchmarkSimsPerSec measures sustained sweep throughput in verified
// simulations per second: each iteration runs the heaviest benchmark's
// full Figure 7 buffer sweep sweepsPerIter times (core.RunSweep: one
// plan-free execution, then a fold per capacity), the workload lpbufd
// jobs and figure regenerations are made of. It compiles directly
// through core — bypassing the suite's run cache — so every sweep
// simulates for real. benchdiff holds its sims/sec to a 10%
// higher-is-better band against the previous run (perfgate's sims/sec
// policy).
func BenchmarkSimsPerSec(b *testing.B) {
	c := simsPerSecCompile(b, nil)
	b.ResetTimer()
	sims := 0
	for i := 0; i < b.N*sweepsPerIter; i++ {
		results, err := c.RunSweep(experiments.BufferSizes)
		if err != nil {
			b.Fatal(err)
		}
		sims += len(results)
	}
	b.ReportMetric(float64(sims)/b.Elapsed().Seconds(), "sims/sec")
}

// BenchmarkSimsPerSecPMU measures what guest-PMU sampling at the
// default period costs a sweep. Each iteration runs sweepsPerIter
// sweeps of BenchmarkSimsPerSec's compile, alternating sampled and
// unsampled ones in one process so host drift and warm-up hit both
// alike, and reports the sampled rate as sims/sec and the unsampled
// one as unsampled-sims/sec. benchdiff reads the two as perfgate's
// SimsPerSecPMU ratio row: sampling may cost at most 10% of the
// unsampled rate.
func BenchmarkSimsPerSecPMU(b *testing.B) {
	sampled := simsPerSecCompile(b, &pmu.Config{})
	unsampled := *sampled
	unsampled.Config.PMU = nil
	b.ResetTimer()
	var on, off time.Duration
	simsOn, simsOff := 0, 0
	samples := int64(0)
	for i := 0; i < b.N*sweepsPerIter; i++ {
		c := sampled
		if i%2 == 1 {
			c = &unsampled
		}
		start := time.Now()
		results, err := c.RunSweep(experiments.BufferSizes)
		if err != nil {
			b.Fatal(err)
		}
		if c == sampled {
			on += time.Since(start)
			simsOn += len(results)
			samples = 0
			for _, r := range results {
				samples += r.Profile.Total()
			}
		} else {
			off += time.Since(start)
			simsOff += len(results)
		}
	}
	b.ReportMetric(float64(simsOn)/on.Seconds(), "sims/sec")
	b.ReportMetric(float64(simsOff)/off.Seconds(), "unsampled-sims/sec")
	b.ReportMetric(float64(samples), "samples/sweep")
}

// simsPerSecCompile compiles the SimsPerSec benchmarks' program,
// g724enc under the aggressive config, with sampling cfg (nil: off).
func simsPerSecCompile(b *testing.B, cfg *pmu.Config) *core.Compiled {
	bm, ok := suite.ByName("g724enc")
	if !ok {
		b.Fatal("g724enc missing from the benchmark table")
	}
	cc := core.Aggressive(256)
	cc.Name = "aggressive"
	cc.TraceLabel = "g724enc"
	cc.PMU = cfg
	c, err := core.Compile(bm.Build(), cc)
	if err != nil {
		b.Fatal(err)
	}
	return c
}
