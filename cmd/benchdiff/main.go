// Command benchdiff is the perf/stat regression gate over the
// artifacts this repository produces:
//
//   - `benchdiff old.json new.json` compares two cmd/benchjson
//     artifacts (lpbuf/bench/v2) with the internal/obs/perfgate
//     statistics core — median/MAD summaries, Mann–Whitney
//     significance, per-metric tolerance bands — prints a
//     benchstat-style table and exits 1 on any significant regression.
//     The same table carries perfgate's ratio rows, read within the new
//     artifact alone: SimsPerSecPMU's sampled/unsampled row fails when
//     guest-PMU sampling costs more than 10% of the unsampled sweeps it
//     alternates with. Across environments,
//     wall-clock rows stay advisory and deterministic rows still gate.
//   - `benchdiff -metrics old.json new.json` diffs the registry
//     sections of two lpbuf.metrics/v1 snapshots (counter/gauge/
//     histogram drift between runs), informational only.
//   - `benchdiff -check-baselines` recomputes the deterministic
//     sim-stat document (Figure 7 buffer percentages, 256-op op/fetch
//     counts, normalized fetch energy) and compares it against
//     baselines/simstats.json with explicit tolerances, exiting 1 on
//     functional drift. `-update-baselines` regenerates the file after
//     an intentional change.
//
// Flags: -alpha significance level, -tol metric=frac[,metric=frac...]
// tolerance overrides, -md FILE markdown report (the CI artifact),
// -advisory always exit 0 (CI's advisory tier), -allow-missing ignore
// benchmarks/metrics that vanished.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"lpbuf/internal/experiments"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/perfgate"
)

func main() {
	alpha := flag.Float64("alpha", 0.05, "Mann-Whitney significance level")
	tol := flag.String("tol", "", "per-metric tolerance overrides, e.g. 'ns/op=0.08,B/op=0.05'")
	mdOut := flag.String("md", "", "also write the report as markdown to this file")
	advisory := flag.Bool("advisory", false, "report regressions but exit 0 (CI advisory tier)")
	allowMissing := flag.Bool("allow-missing", false, "do not fail on benchmarks/metrics missing from the new artifact")
	metricsMode := flag.Bool("metrics", false, "diff the registry sections of two lpbuf.metrics/v1 snapshots")
	checkBaselines := flag.Bool("check-baselines", false, "recompute sim stats and compare against the baseline file")
	updateBaselines := flag.Bool("update-baselines", false, "recompute sim stats and rewrite the baseline file")
	baselines := flag.String("baselines", "baselines/simstats.json", "sim-stat baseline file")
	bufPctTol := flag.Float64("buffer-pct-tol", 0.5, "baseline tolerance on %buffer values, in percentage points")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	switch {
	case *updateBaselines:
		doc, err := collectSimStats()
		if err != nil {
			fail(err)
		}
		if err := doc.WriteFile(*baselines); err != nil {
			fail(err)
		}
		fmt.Printf("benchdiff: wrote %s (%d benchmarks, %s)\n",
			*baselines, len(doc.Benchmarks), perfgate.SimStatsSchema)
		return

	case *checkBaselines:
		want, err := perfgate.ReadSimStats(*baselines)
		if err != nil {
			fail(err)
		}
		got, err := collectSimStatsAt(want.BufferSizes)
		if err != nil {
			fail(err)
		}
		tolBand := perfgate.DefaultBaselineTolerance()
		tolBand.BufferPctPoints = *bufPctTol
		drifts := perfgate.CompareSimStats(want, got, tolBand)
		fmt.Print(perfgate.RenderDrifts(drifts))
		if *mdOut != "" {
			if err := writeDriftMarkdown(*mdOut, *baselines, drifts); err != nil {
				fail(err)
			}
		}
		if len(drifts) > 0 && !*advisory {
			fmt.Fprintln(os.Stderr, "benchdiff: functional drift vs baselines; if intentional, rerun with -update-baselines")
			os.Exit(1)
		}
		return

	case *metricsMode:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("usage: benchdiff -metrics old.json new.json"))
		}
		deltas, err := diffMetrics(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if len(deltas) == 0 {
			fmt.Println("benchdiff: registries identical")
			return
		}
		fmt.Printf("benchdiff: %d instrument(s) drifted (%s -> %s)\n", len(deltas), flag.Arg(0), flag.Arg(1))
		for _, d := range deltas {
			fmt.Printf("  %-40s %-10s %14g -> %-14g (%+g)\n", d.Name, d.Kind, d.Old, d.New, d.Diff)
		}
		return

	default:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] old.json new.json")
			fmt.Fprintln(os.Stderr, "       benchdiff -metrics old.json new.json")
			fmt.Fprintln(os.Stderr, "       benchdiff -check-baselines | -update-baselines")
			flag.PrintDefaults()
			os.Exit(2)
		}
		policies, err := parseTol(*tol)
		if err != nil {
			fail(err)
		}
		oldArt, err := perfgate.ReadBenchArtifact(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		newArt, err := perfgate.ReadBenchArtifact(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		rep := perfgate.Compare(oldArt, newArt, perfgate.Options{
			Alpha:        *alpha,
			Policies:     policies,
			AllowMissing: *allowMissing,
		})
		rep.OldLabel = flag.Arg(0)
		rep.NewLabel = flag.Arg(1)
		fmt.Print(rep.Render())
		if *mdOut != "" {
			if err := os.WriteFile(*mdOut, []byte(rep.Markdown()), 0o644); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "benchdiff: wrote %s\n", *mdOut)
		}
		if rep.Regressions() > 0 && !*advisory {
			os.Exit(1)
		}
	}
}

// collectSimStats runs the suite over the Figure 7 sweep.
func collectSimStats() (*perfgate.SimStats, error) {
	return collectSimStatsAt(experiments.BufferSizes)
}

func collectSimStatsAt(sizes []int) (*perfgate.SimStats, error) {
	return experiments.New().SimStats(sizes)
}

// parseTol parses 'metric=frac,metric=frac' overrides. Overridden
// metrics keep their default direction (unknown metrics stay
// two-sided) but get the explicit band and lose the deterministic
// exactness, since a nonzero band implies expected noise.
func parseTol(s string) (map[string]perfgate.Policy, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]perfgate.Policy{}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("bad -tol entry %q (want metric=frac)", kv)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("bad -tol value %q", val)
		}
		pol := perfgate.Policy{Tol: f, Dir: perfgate.TwoSided}
		if def, ok := perfgate.DefaultPolicies()[name]; ok {
			pol.Dir = def.Dir
		}
		pol.Deterministic = f == 0
		out[name] = pol
	}
	return out, nil
}

// diffMetrics loads two lpbuf.metrics/v1 snapshots and diffs their
// registry sections.
func diffMetrics(oldPath, newPath string) ([]obs.Delta, error) {
	load := func(path string) (obs.RegistrySnapshot, error) {
		var dump struct {
			Schema   string               `json:"schema"`
			Registry obs.RegistrySnapshot `json:"registry"`
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return dump.Registry, err
		}
		if err := json.Unmarshal(data, &dump); err != nil {
			return dump.Registry, fmt.Errorf("%s: %v", path, err)
		}
		if dump.Schema != experiments.MetricsSchema {
			return dump.Registry, fmt.Errorf("%s: schema %q, want %s", path, dump.Schema, experiments.MetricsSchema)
		}
		return dump.Registry, nil
	}
	oldSnap, err := load(oldPath)
	if err != nil {
		return nil, err
	}
	newSnap, err := load(newPath)
	if err != nil {
		return nil, err
	}
	return obs.DiffSnapshot(oldSnap, newSnap), nil
}

// writeDriftMarkdown renders the baseline-check outcome for the CI
// artifact.
func writeDriftMarkdown(path, baselines string, drifts []perfgate.Drift) error {
	var sb strings.Builder
	sb.WriteString("# sim-stat baseline check\n\n")
	fmt.Fprintf(&sb, "Baseline file: `%s`.\n\n", baselines)
	if len(drifts) == 0 {
		sb.WriteString("No functional drift.\n")
	} else {
		fmt.Fprintf(&sb, "**%d drift(s):**\n\n", len(drifts))
		sb.WriteString("| benchmark | config | field | baseline | got | tolerance |\n|---|---|---|---|---|---|\n")
		for _, d := range drifts {
			fmt.Fprintf(&sb, "| %s | %s | %s | %.6g | %.6g | %.6g |\n",
				d.Bench, d.Config, d.Field, d.Want, d.Got, d.Tol)
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
