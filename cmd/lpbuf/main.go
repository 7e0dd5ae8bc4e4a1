// Command lpbuf regenerates the paper's evaluation: buffer-issue
// curves (Figure 7), performance/code-size/fetch ratios (Figure 8a),
// normalized instruction-fetch power (Figure 8b), the predication
// characterization (Figure 3), the g724dec PostFilter buffer traces
// (Figure 5), and the headline aggregates. It can also run a single
// benchmark and print its statistics.
//
// Experiments execute as internal/runner parallel loops: each figure's
// per-benchmark compile and simulate jobs spread across a bounded
// worker pool (default GOMAXPROCS, -par N to override) over one memo,
// so no (benchmark, config) pair ever compiles twice. The rendered
// tables are byte-identical at any parallelism.
//
// Usage:
//
//	lpbuf -list               # enumerate benchmarks and experiments
//	lpbuf -fig 7              # both Figure 7 curves
//	lpbuf -fig 8a|8b|3|5      # one figure
//	lpbuf -fig shootout       # heuristic vs exact scheduler shoot-out
//	lpbuf -headline           # abstract-level aggregates
//	lpbuf -bench g724dec      # one benchmark at -buffer ops
//	lpbuf -all                # everything (EXPERIMENTS.md content)
//	lpbuf -all -par 8         # same, 8 workers
//	lpbuf -all -json out.json # also write the versioned JSON artifact
//	lpbuf -all -progress      # per-job progress log on stderr
//	lpbuf -verify -fig all    # everything, with phase checkpoints enabled
//	lpbuf -fig 5 -trace-out trace.json   # Chrome/Perfetto trace of the run
//	lpbuf -all -metrics-out metrics.json # counters + per-loop energy split
//	lpbuf -all -pprof :6060   # expvar + net/http/pprof while running
//	lpbuf -fig 5 -submit http://127.0.0.1:7788   # run on a lpbufd instead
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/experiments"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/runner"
	"lpbuf/internal/service"
	"lpbuf/internal/verify"
)

// knownFigures are the accepted -fig values.
var knownFigures = []string{"3", "5", "7", "8a", "8b", "shootout"}

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 3, 5, 7, 8a, 8b, shootout")
	schedBackend := flag.String("sched", "heuristic", "modulo-scheduler backend for -bench/-dump/-ablate: heuristic or optimal")
	headline := flag.Bool("headline", false, "print headline aggregates")
	benchName := flag.String("bench", "", "run one benchmark")
	buffer := flag.Int("buffer", 256, "loop buffer size in operations")
	ablate := flag.String("ablate", "", "ablation study for one benchmark")
	dump := flag.String("dump", "", "disassemble a benchmark's scheduled code (aggressive config)")
	widths := flag.String("widths", "", "issue-width sensitivity sweep for one benchmark")
	encoding := flag.Bool("encoding", false, "predication encoding cost table")
	all := flag.Bool("all", false, "regenerate everything")
	doVerify := flag.Bool("verify", false, "run internal/verify phase checkpoints on every compile")
	list := flag.Bool("list", false, "list benchmarks and experiments")
	par := flag.Int("par", 0, "experiment worker parallelism (default GOMAXPROCS)")
	jsonOut := flag.String("json", "", "write a JSON artifact of the computed results to this file")
	progress := flag.Bool("progress", false, "log per-job runner progress to stderr")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	simProfileOut := flag.String("sim-profile", "", "write a sampled guest PMU profile (lpbuf.simprofile/v1 JSON) to this file")
	simFlameOut := flag.String("sim-flame", "", "write the sampled profile as collapsed-stack (flamegraph) text to this file")
	metricsOut := flag.String("metrics-out", "", "write a metrics snapshot (registry + per-loop energy) to this file")
	pprofAddr := flag.String("pprof", "", "serve expvar and net/http/pprof on this address while running")
	submit := flag.String("submit", "", "submit the job to a running lpbufd at this base URL instead of executing locally")
	specOut := flag.String("spec-out", "", "with -submit: write the normalized job request JSON to this file")
	statusOut := flag.String("status-out", "", "with -submit: write the final job status JSON to this file")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "lpbuf:", err)
		os.Exit(1)
	}

	// -sched selects the modulo-scheduler backend for the single-bench
	// experiments; cfgSuffix maps it onto the experiment config names
	// ("aggressive" -> "aggressive-optimal").
	var cfgSuffix string
	switch *schedBackend {
	case "", "heuristic":
		*schedBackend = ""
	case "optimal":
		cfgSuffix = "-optimal"
	default:
		fail(fmt.Errorf("unknown -sched backend %q (known: heuristic, optimal)", *schedBackend))
	}

	if *list {
		printList()
		return
	}
	if *submit != "" {
		// Remote mode: the daemon runs figure jobs only. Flags that need
		// the local process (single-bench runs, disassembly, pprof) don't
		// round-trip through the job codec — reject them loudly rather
		// than silently running half the request locally. -trace-out does
		// round-trip: the daemon traces every job, and the client fetches
		// the server-side span tree from /v1/jobs/{id}/trace.
		localOnly := map[string]string{
			"bench": *benchName, "ablate": *ablate, "widths": *widths,
			"dump": *dump, "metrics-out": *metricsOut,
			"pprof": *pprofAddr, "sched": *schedBackend,
		}
		for name, val := range localOnly {
			if val != "" {
				fail(fmt.Errorf("-%s is local-only and cannot be combined with -submit", name))
			}
		}
		var figures []string
		switch {
		case *all || *fig == "all":
			figures = []string{"all"}
		default:
			if *fig != "" {
				figures = append(figures, *fig)
			}
			if *encoding {
				figures = append(figures, "encoding")
			}
			if *headline {
				figures = append(figures, "headline")
			}
		}
		if len(figures) == 0 {
			fail(fmt.Errorf("-submit needs figures: -fig N, -all, -encoding or -headline"))
		}
		spec, err := service.SpecForFigures(figures, *doVerify)
		if err != nil {
			fail(err)
		}
		if err := runSubmit(*submit, spec, submitOptions{
			progress:      *progress,
			specOut:       *specOut,
			statusOut:     *statusOut,
			jsonOut:       *jsonOut,
			traceOut:      *traceOut,
			simProfileOut: *simProfileOut,
			simFlameOut:   *simFlameOut,
		}); err != nil {
			fail(err)
		}
		return
	}
	switch *fig {
	case "", "3", "5", "7", "8a", "8b", "shootout":
	case "all":
		// `-fig all` is an alias for -all.
		*fig, *all = "", true
	default:
		fail(fmt.Errorf("unknown figure %q (known: %s, all)", *fig, strings.Join(knownFigures, ", ")))
	}

	if *benchName == "" && *fig == "" && !*all && *dump == "" && *ablate == "" &&
		*widths == "" && !*encoding && !*headline {
		flag.Usage()
		os.Exit(2)
	}

	opts := experiments.Options{Workers: *par, Verify: *doVerify}
	if *progress {
		opts.OnEvent = runner.LogObserver(os.Stderr)
	}
	// The sampled guest PMU rides every simulation when any profile
	// output is requested; -trace-out enables it too so the Perfetto
	// export gains its counter tracks.
	if *simProfileOut != "" || *simFlameOut != "" || *traceOut != "" {
		opts.PMU = &pmu.Config{}
	}
	var o *obs.Obs
	if *traceOut != "" || *metricsOut != "" || *pprofAddr != "" {
		o = obs.New(obs.Config{
			Metrics:   true,
			Spans:     *traceOut != "",
			SimEvents: *traceOut != "",
		})
		opts.Obs = o
	}
	if *pprofAddr != "" {
		// Publish the live registry snapshot through expvar alongside
		// the default pprof handlers. The server binds synchronously —
		// a bad -pprof address fails fast instead of racing main — and
		// is drained via Shutdown before exit so in-flight profile
		// requests complete and the listener is released.
		expvar.Publish("lpbuf", expvar.Func(func() any { return o.Registry().Snapshot() }))
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fail(fmt.Errorf("pprof: %w", err))
		}
		srv := &http.Server{}
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "lpbuf: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "lpbuf: pprof listening on %s\n", ln.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "lpbuf: pprof shutdown:", err)
			}
		}()
	}
	s := experiments.NewWithOptions(opts)
	art := experiments.NewArtifact()

	if *benchName != "" {
		for _, cfg := range []string{"traditional", "aggressive" + cfgSuffix} {
			r, err := s.RunAt(*benchName, cfg, *buffer)
			if err != nil {
				fail(err)
			}
			fmt.Printf("%s/%s @%d ops: buffer issue %.1f%%, cycles %d, ops %d (%d nullified), static %d ops\n",
				r.Bench, r.Config, r.BufferOps, 100*r.Stats.BufferIssueRatio(),
				r.Stats.Cycles, r.Stats.OpsIssued, r.Stats.OpsNullified, r.StaticOps)
			fmt.Printf("  passes: inlined=%d peeled=%d collapsed=%d converted=%d combined=%d promoted=%d cloops=%d kernels=%d\n",
				r.Pass.Inlined, r.Pass.Peeled, r.Pass.Collapsed, r.Pass.Converted,
				r.Pass.Combined, r.Pass.Promoted, r.Pass.CLoops, r.Pass.ModuloKernels)
		}
	}
	var err error
	if *fig == "7" || *all {
		art.Figure7 = map[string][]experiments.Fig7Row{}
		for _, cfg := range []string{"traditional", "aggressive"} {
			if art.Figure7[cfg], err = s.Figure7(cfg, experiments.BufferSizes); err != nil {
				fail(err)
			}
		}
	}
	if *fig == "8a" || *all {
		if art.Figure8a, err = s.Figure8a(); err != nil {
			fail(err)
		}
	}
	if *fig == "8b" || *all {
		if art.Figure8b, err = s.Figure8b(); err != nil {
			fail(err)
		}
	}
	if *fig == "3" || *all {
		if art.Figure3, err = s.Figure3(); err != nil {
			fail(err)
		}
	}
	if *fig == "5" || *all {
		for _, sz := range []int{16, 32, 64} {
			f5, err := s.Figure5(sz)
			if err != nil {
				fail(err)
			}
			art.Figure5 = append(art.Figure5, f5)
		}
	}
	if *fig == "shootout" || *all {
		if art.Shootout, err = s.Shootout(); err != nil {
			fail(err)
		}
	}
	if *encoding || *all {
		if art.Encoding, err = s.EncodingCosts(); err != nil {
			fail(err)
		}
	}
	if *headline || *all {
		if art.Headline, err = s.ComputeHeadline(); err != nil {
			fail(err)
		}
	}
	art.Render(os.Stdout)
	if *dump != "" {
		text, err := s.DisasmConfig(*dump, "aggressive"+cfgSuffix)
		if err != nil {
			fail(err)
		}
		fmt.Print(text)
	}
	if *ablate != "" {
		rows, err := s.AblationBackend(*ablate, *schedBackend)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderAblation(*ablate, rows))
	}
	if *widths != "" {
		rows, err := s.WidthSweep(*widths)
		if err != nil {
			fail(err)
		}
		fmt.Println(experiments.RenderWidths(*widths, rows))
	}
	if *doVerify || verify.Forced() {
		st := verify.Snapshot()
		fmt.Fprintf(os.Stderr, "lpbuf: verify: %d checkpoints, %d invariant violations\n",
			st.Checkpoints, st.Violations)
	}
	if *jsonOut != "" {
		snap := s.Metrics()
		art.Runner = &snap
		if o != nil {
			reg := o.Registry().Snapshot()
			art.Metrics = &reg
		}
		if err := art.WriteFile(*jsonOut); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (%s)\n", *jsonOut, experiments.ArtifactSchema)
	}
	if *metricsOut != "" {
		if err := s.MetricsDump().WriteFile(*metricsOut); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (%s)\n", *metricsOut, experiments.MetricsSchema)
	}
	var simDoc *pmu.Document
	if opts.PMU != nil {
		simDoc = s.SimProfiles()
	}
	if *simProfileOut != "" {
		if simDoc == nil {
			fail(fmt.Errorf("-sim-profile: no simulations ran, nothing to profile"))
		}
		if err := simDoc.WriteFile(*simProfileOut); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (%s)\n", *simProfileOut, pmu.Schema)
	}
	if *simFlameOut != "" {
		if simDoc == nil {
			fail(fmt.Errorf("-sim-flame: no simulations ran, nothing to profile"))
		}
		if err := os.WriteFile(*simFlameOut, []byte(simDoc.Collapsed()), 0o644); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (collapsed stacks)\n", *simFlameOut)
	}
	if *traceOut != "" {
		var counters []obs.CounterSeries
		if simDoc != nil {
			counters = simDoc.CounterSeries(nil)
		}
		if err := obs.WriteChromeTraceCountersFile(*traceOut, o.Trace, o.Sim, counters); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "lpbuf: wrote %s (chrome trace-event JSON)\n", *traceOut)
	}
}

// printList enumerates the benchmark suite and every experiment the
// CLI can regenerate.
func printList() {
	fmt.Println("benchmarks (Table 1 order):")
	for _, b := range suite.All() {
		fmt.Printf("  %s\n", b.Name)
	}
	fmt.Println()
	fmt.Println("experiments:")
	fmt.Println("  -fig 3          predication characterization (consumers, durations, overlap)")
	fmt.Println("  -fig 5          g724dec post-filter buffer traces (16/32/64-op buffers)")
	fmt.Println("  -fig 7          buffer issue vs buffer size, both configs")
	fmt.Println("  -fig 8a         speedup / code size / fetch ratios at 256 ops")
	fmt.Println("  -fig 8b         normalized instruction-fetch power at 256 ops")
	fmt.Println("  -fig shootout   heuristic vs exact modulo-scheduler shoot-out (II gap, proofs)")
	fmt.Println("  -encoding       predication encoding cost (full guard fields vs slot model)")
	fmt.Println("  -headline       abstract-level aggregates")
	fmt.Println("  -bench NAME     one benchmark at -buffer ops, both configs")
	fmt.Println("  -ablate NAME    aggressive pipeline with one pass disabled at a time")
	fmt.Println("  -widths NAME    2/4/8-wide issue-width sensitivity sweep")
	fmt.Println("  -dump NAME      scheduled-code disassembly (aggressive config)")
	fmt.Println("  -sched BACKEND  modulo scheduler for -bench/-dump/-ablate: heuristic|optimal")
	fmt.Println("  -all            every figure and table (EXPERIMENTS.md content)")
	fmt.Println()
	fmt.Println("execution: -par N workers, -json FILE artifact, -progress job log,")
	fmt.Println("           -verify phase checkpoints (also: build -tags verify)")
	fmt.Println("observability: -trace-out FILE Chrome/Perfetto trace (with PMU counter")
	fmt.Println("           tracks), -sim-profile FILE sampled guest PMU profile JSON,")
	fmt.Println("           -sim-flame FILE collapsed flamegraph stacks, -metrics-out FILE")
	fmt.Println("           counters + per-loop energy snapshot, -pprof ADDR expvar/pprof")
	fmt.Println("remote:    -submit URL run figure jobs on a lpbufd (with -spec-out,")
	fmt.Println("           -status-out, -json, -progress; -trace-out fetches the")
	fmt.Println("           daemon's per-job span tree, -sim-profile/-sim-flame its")
	fmt.Println("           sampled guest profile); see SERVICE.md")
}
