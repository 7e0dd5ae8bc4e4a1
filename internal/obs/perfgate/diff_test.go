package perfgate

import (
	"strings"
	"testing"
)

// artifact builds a v2-shaped artifact from name → unit → samples.
func artifact(results map[string]map[string][]float64) *BenchArtifact {
	art := &BenchArtifact{
		Schema: BenchSchemaV2,
		Env:    Env{Go: "go1.24.0", OS: "linux", Arch: "amd64", NumCPU: 8, GOMAXPROCS: 8},
		Count:  5,
	}
	for _, name := range sortedKeys(results) {
		r := BenchResult{Name: name, Iterations: 1, Samples: map[string][]float64{}}
		for unit, vs := range results[name] {
			r.Samples[unit] = append([]float64(nil), vs...)
		}
		art.Results = append(art.Results, r)
	}
	return art
}

func findRow(t *testing.T, rep *Report, bench, metric string) Row {
	t.Helper()
	for _, row := range rep.Rows {
		if row.Bench == bench && row.Metric == metric {
			return row
		}
	}
	t.Fatalf("no row for %s/%s in %+v", bench, metric, rep.Rows)
	return Row{}
}

// TestSyntheticNsOpRegression is the acceptance scenario: a 10% ns/op
// slowdown across five samples must come out as a significant
// regression (non-zero gate), while the deterministic metric riding
// along stays clean.
func TestSyntheticNsOpRegression(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"Figure7Traditional": {
			"ns/op":       {2.23e9, 2.25e9, 2.21e9, 2.24e9, 2.22e9},
			"%buffer@256": {32.65, 32.65, 32.65, 32.65, 32.65},
		},
	})
	cur := artifact(map[string]map[string][]float64{
		"Figure7Traditional": {
			"ns/op":       {2.45e9, 2.47e9, 2.44e9, 2.46e9, 2.45e9}, // ~+10%
			"%buffer@256": {32.65, 32.65, 32.65, 32.65, 32.65},
		},
	})
	rep := Compare(old, cur, Options{})
	row := findRow(t, rep, "Figure7Traditional", "ns/op")
	if row.Verdict != VerdictRegression {
		t.Fatalf("ns/op verdict = %s (p=%v, delta=%v), want REGRESSION", row.Verdict, row.P, row.Delta)
	}
	if row.Delta < 0.05 || row.Delta > 0.15 {
		t.Errorf("delta = %v, want ~+0.10", row.Delta)
	}
	if row.P >= 0.05 {
		t.Errorf("p = %v, want < 0.05", row.P)
	}
	if buf := findRow(t, rep, "Figure7Traditional", "%buffer@256"); buf.Verdict != VerdictOK {
		t.Errorf("%%buffer@256 verdict = %s, want ok", buf.Verdict)
	}
	if rep.Regressions() != 1 {
		t.Errorf("Regressions() = %d, want 1", rep.Regressions())
	}
	out := rep.Render()
	if !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "ns/op") {
		t.Errorf("rendered table missing regression marker:\n%s", out)
	}
	md := rep.Markdown()
	if !strings.Contains(md, "| Figure7Traditional | ns/op |") {
		t.Errorf("markdown missing table row:\n%s", md)
	}
}

// TestSameCommitMultiSampleClean is the other half of the acceptance
// criterion: two runs of the same commit — identical deterministic
// metrics, wall-clock jitter within noise — must compare clean.
func TestSameCommitMultiSampleClean(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"Figure7Traditional": {
			"ns/op":       {2.23e9, 2.25e9, 2.21e9, 2.24e9, 2.22e9},
			"%buffer@256": {32.65, 32.65, 32.65, 32.65, 32.65},
		},
		"SimulatorThroughput": {
			"ns/op":       {1.60e8, 1.62e8, 1.59e8, 1.61e8, 1.60e8},
			"sim-ops/run": {2752029, 2752029, 2752029, 2752029, 2752029},
		},
	})
	cur := artifact(map[string]map[string][]float64{
		"Figure7Traditional": {
			"ns/op":       {2.24e9, 2.22e9, 2.25e9, 2.21e9, 2.23e9},
			"%buffer@256": {32.65, 32.65, 32.65, 32.65, 32.65},
		},
		"SimulatorThroughput": {
			"ns/op":       {1.61e8, 1.59e8, 1.62e8, 1.60e8, 1.60e8},
			"sim-ops/run": {2752029, 2752029, 2752029, 2752029, 2752029},
		},
	})
	rep := Compare(old, cur, Options{})
	if n := rep.Regressions(); n != 0 {
		t.Fatalf("same-commit comparison found %d regressions:\n%s", n, rep.Render())
	}
	for _, row := range rep.Rows {
		if row.Verdict == VerdictRegression || row.Verdict == VerdictMissing {
			t.Errorf("row %s/%s verdict = %s", row.Bench, row.Metric, row.Verdict)
		}
	}
}

// TestSmallSampleNoiseIsAdvisory: below MinSamples per side,
// Mann–Whitney cannot reach p < 0.05 (n=3+3 bottoms out at 0.1), so a
// wall-clock tolerance breach must stay advisory ("~") — otherwise two
// clean same-commit runs on a loaded machine would fail the gate.
// Deterministic metrics in the same artifact still gate exactly.
func TestSmallSampleNoiseIsAdvisory(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"Figure7Traditional": {
			"ns/op":       {2.49e9, 2.67e9, 2.88e9},
			"%buffer@256": {32.65, 32.65, 32.65},
		},
	})
	cur := artifact(map[string]map[string][]float64{
		"Figure7Traditional": {
			"ns/op":       {3.26e9, 3.10e9, 3.40e9}, // +22% load noise
			"%buffer@256": {32.65, 32.65, 32.65},
		},
	})
	rep := Compare(old, cur, Options{})
	row := findRow(t, rep, "Figure7Traditional", "ns/op")
	if row.Verdict != VerdictInsig {
		t.Fatalf("n=3+3 breach verdict = %s, want %s:\n%s", row.Verdict, VerdictInsig, rep.Render())
	}
	if n := rep.Regressions(); n != 0 {
		t.Fatalf("small-n noise counted as %d regression(s)", n)
	}
	// But the deterministic metric still fails on real drift at n=3.
	cur.Result("Figure7Traditional").Samples["%buffer@256"] = []float64{30.65, 30.65, 30.65}
	if n := Compare(old, cur, Options{}).Regressions(); n != 1 {
		t.Errorf("deterministic drift at n=3 regressions = %d, want 1", n)
	}
}

// TestDeterministicMetricDrift: a deterministic metric shift flags
// even without enough samples for a significance test.
func TestDeterministicMetricDrift(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"Figure7Aggressive": {"ns/op": {2.3e9}, "%buffer@256": {90.67}},
	})
	cur := artifact(map[string]map[string][]float64{
		"Figure7Aggressive": {"ns/op": {2.3e9}, "%buffer@256": {88.67}},
	})
	rep := Compare(old, cur, Options{})
	row := findRow(t, rep, "Figure7Aggressive", "%buffer@256")
	if row.Verdict != VerdictRegression {
		t.Fatalf("2-point %%buffer drift verdict = %s, want REGRESSION", row.Verdict)
	}
	// An *increase* of a two-sided deterministic metric flags too.
	cur2 := artifact(map[string]map[string][]float64{
		"Figure7Aggressive": {"ns/op": {2.3e9}, "%buffer@256": {92.67}},
	})
	if row := findRow(t, Compare(old, cur2, Options{}), "Figure7Aggressive", "%buffer@256"); row.Verdict != VerdictRegression {
		t.Errorf("upward drift verdict = %s, want REGRESSION (two-sided)", row.Verdict)
	}
}

// TestModuloHeuristicBands: BenchmarkModuloHeuristic's ns/kernel is
// wall clock, lower is better, inside a 5% noise band, while its
// kernels/run is a deterministic count that may not drift either way.
func TestModuloHeuristicBands(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"ModuloHeuristic": {"ns/kernel": {5.0e5, 5.1e5, 4.9e5, 5.0e5, 5.2e5}, "kernels/run": {106}},
	})
	cases := []struct {
		name    string
		ns      []float64
		kernels float64
		metric  string
		want    Verdict
	}{
		{"ns/kernel +2%", []float64{5.1e5, 5.2e5, 5.0e5, 5.1e5, 5.3e5}, 106, "ns/kernel", VerdictOK},
		{"ns/kernel +20%", []float64{6.0e5, 6.1e5, 5.9e5, 6.0e5, 6.2e5}, 106, "ns/kernel", VerdictRegression},
		{"ns/kernel -80%", []float64{1.0e5, 1.1e5, 0.9e5, 1.0e5, 1.2e5}, 106, "ns/kernel", VerdictImprovement},
		{"kernels/run 106 -> 105", []float64{5.0e5, 5.1e5, 4.9e5, 5.0e5, 5.2e5}, 105, "kernels/run", VerdictRegression},
		{"kernels/run 106 -> 107", []float64{5.0e5, 5.1e5, 4.9e5, 5.0e5, 5.2e5}, 107, "kernels/run", VerdictRegression},
	}
	for _, c := range cases {
		cur := artifact(map[string]map[string][]float64{
			"ModuloHeuristic": {"ns/kernel": c.ns, "kernels/run": {c.kernels}},
		})
		if row := findRow(t, Compare(old, cur, Options{}), "ModuloHeuristic", c.metric); row.Verdict != c.want {
			t.Errorf("%s: verdict = %s (delta %+.3f, p=%v), want %s", c.name, row.Verdict, row.Delta, row.P, c.want)
		}
	}
}

// TestImprovementDoesNotFail: a significant speedup is reported but
// does not trip the gate.
func TestImprovementDoesNotFail(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"S": {"ns/op": {100, 101, 99, 100, 102}},
	})
	cur := artifact(map[string]map[string][]float64{
		"S": {"ns/op": {80, 81, 79, 80, 82}},
	})
	rep := Compare(old, cur, Options{})
	row := findRow(t, rep, "S", "ns/op")
	if row.Verdict != VerdictImprovement {
		t.Fatalf("verdict = %s, want improvement", row.Verdict)
	}
	if rep.Regressions() != 0 {
		t.Errorf("improvement counted as regression")
	}
}

// TestInsignificantNoiseWithinAlpha: a delta beyond tolerance but with
// overlapping samples is reported as "~", not a regression.
func TestInsignificantNoiseWithinAlpha(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"S": {"ns/op": {100, 140, 90, 120, 95}},
	})
	cur := artifact(map[string]map[string][]float64{
		"S": {"ns/op": {115, 95, 135, 100, 110}},
	})
	rep := Compare(old, cur, Options{})
	row := findRow(t, rep, "S", "ns/op")
	if row.Verdict == VerdictRegression {
		t.Fatalf("noisy overlap flagged as regression (p=%v, delta=%v)", row.P, row.Delta)
	}
}

// TestMissingBenchmarkFailsUnlessAllowed pins the missing-data policy.
func TestMissingBenchmarkFailsUnlessAllowed(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"A": {"ns/op": {100}},
		"B": {"ns/op": {100}},
	})
	cur := artifact(map[string]map[string][]float64{
		"A": {"ns/op": {100}},
	})
	if n := Compare(old, cur, Options{}).Regressions(); n != 1 {
		t.Errorf("missing benchmark regressions = %d, want 1", n)
	}
	if n := Compare(old, cur, Options{AllowMissing: true}).Regressions(); n != 0 {
		t.Errorf("AllowMissing regressions = %d, want 0", n)
	}
}

// TestPolicyOverride: a caller-supplied tolerance band replaces the
// default.
func TestPolicyOverride(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"S": {"ns/op": {100, 101, 99, 100, 102}},
	})
	cur := artifact(map[string]map[string][]float64{
		"S": {"ns/op": {107, 108, 106, 107, 109}}, // +7%
	})
	// Default 5% tolerance: flagged.
	if row := findRow(t, Compare(old, cur, Options{}), "S", "ns/op"); row.Verdict != VerdictRegression {
		t.Fatalf("default tolerance verdict = %s, want REGRESSION", row.Verdict)
	}
	// Widened to 10%: clean.
	opts := Options{Policies: map[string]Policy{"ns/op": {Tol: 0.10, Dir: LowerIsBetter}}}
	if row := findRow(t, Compare(old, cur, opts), "S", "ns/op"); row.Verdict != VerdictOK {
		t.Errorf("widened tolerance verdict = %s, want ok", row.Verdict)
	}
}

// TestParseBenchArtifactRejectsMalformed: broken or foreign
// documents, the retired single-sample lpbuf/bench/v1 schema included,
// fail to load instead of diffing as empty artifacts.
func TestParseBenchArtifactRejectsMalformed(t *testing.T) {
	cases := []string{
		`{"schema": "lpbuf/bench/v3"}`,
		`{"schema": "lpbuf/bench/v1", "results": [{"name": "A", "metrics": {"ns/op": 1}}]}`,
		`{"schema": "lpbuf/bench/v2", "results": []}`,
		`{"schema": "lpbuf/bench/v2", "results": [{"name": "A", "samples": {"B/op": [1]}}]}`,
		`{"schema": "lpbuf/bench/v2", "results": [{"name": "A", "samples": {"ns/op": [1, 2], "B/op": [1]}}]}`,
		`{"schema": "lpbuf/bench/v2", "results": [{"name": "A", "samples": {"ns/op": [0]}}]}`,
		`not json`,
	}
	for _, c := range cases {
		if _, err := ParseBenchArtifact([]byte(c)); err == nil {
			t.Errorf("ParseBenchArtifact(%q) succeeded, want error", c)
		}
	}
}

// TestEnvMismatchNoted: cross-environment diffs carry a warning.
func TestEnvMismatchNoted(t *testing.T) {
	old := artifact(map[string]map[string][]float64{"S": {"ns/op": {100}}})
	cur := artifact(map[string]map[string][]float64{"S": {"ns/op": {100}}})
	cur.Env.Go = "go1.25.0"
	rep := Compare(old, cur, Options{})
	if rep.EnvNote == "" || !strings.Contains(rep.EnvNote, "go version") {
		t.Errorf("env note = %q, want go version mismatch", rep.EnvNote)
	}
}

// TestCrossEnvironmentWallClockIsAdvisory: when the report notes that
// the environments differ, a wall-clock breach that would fail on one
// machine is "~" and does not count, while a deterministic drift in the
// same comparison still fails.
func TestCrossEnvironmentWallClockIsAdvisory(t *testing.T) {
	old := artifact(map[string]map[string][]float64{
		"S": {"ns/op": {100, 101, 99, 100, 102}, "%buffer@256": {90.67, 90.67, 90.67, 90.67, 90.67}},
	})
	cur := artifact(map[string]map[string][]float64{
		"S": {"ns/op": {120, 121, 119, 120, 122}, "%buffer@256": {90.67, 90.67, 90.67, 90.67, 90.67}},
	})
	if row := findRow(t, Compare(old, cur, Options{}), "S", "ns/op"); row.Verdict != VerdictRegression {
		t.Fatalf("same-environment +20%% ns/op verdict = %s, want REGRESSION", row.Verdict)
	}
	cur.Env.NumCPU = 1
	rep := Compare(old, cur, Options{})
	if !strings.Contains(rep.EnvNote, "8 vs 1 CPUs") {
		t.Errorf("env note = %q, want the CPU mismatch", rep.EnvNote)
	}
	if row := findRow(t, rep, "S", "ns/op"); row.Verdict != VerdictInsig {
		t.Errorf("cross-environment ns/op verdict = %s, want %s", row.Verdict, VerdictInsig)
	}
	if n := rep.Regressions(); n != 0 {
		t.Errorf("cross-environment wall clock counted as %d regression(s):\n%s", n, rep.Render())
	}
	cur.Result("S").Samples["%buffer@256"] = []float64{88.67, 88.67, 88.67, 88.67, 88.67}
	if n := Compare(old, cur, Options{}).Regressions(); n != 1 {
		t.Errorf("cross-environment deterministic drift regressions = %d, want 1", n)
	}
}

// simsPerSec builds an artifact whose benchmarks report sims/sec
// samples beside a steady ns/op (which every result must carry).
func simsPerSec(env Env, benches map[string][]float64) *BenchArtifact {
	results := map[string]map[string][]float64{}
	for name, samples := range benches {
		ns := make([]float64, len(samples))
		for i := range ns {
			ns[i] = 1e9
		}
		results[name] = map[string][]float64{"ns/op": ns, "sims/sec": samples}
	}
	art := artifact(results)
	art.Env = env
	return art
}

// TestSimsPerSecGate: sustained batch throughput gates through Compare
// on a 10% higher-is-better band — small drops pass, a significant
// large drop fails on one machine but is advisory across machines, and
// an improvement never fails.
func TestSimsPerSecGate(t *testing.T) {
	env := Env{Go: "go1.24", OS: "linux", Arch: "amd64", NumCPU: 8}
	base := simsPerSec(env, map[string][]float64{"SimsPerSec": {100, 101, 99, 100, 102}})
	cases := []struct {
		name    string
		env     Env
		samples []float64
		want    Verdict
	}{
		{"-5% drop", env, []float64{95, 96, 94, 95, 97}, VerdictOK},
		{"-20% drop", env, []float64{80, 81, 79, 80, 82}, VerdictRegression},
		{"-20% drop across environments", Env{Go: "go1.24", OS: "linux", Arch: "amd64", NumCPU: 1},
			[]float64{80, 81, 79, 80, 82}, VerdictInsig},
		{"+30% improvement", env, []float64{130, 131, 129, 130, 132}, VerdictImprovement},
	}
	for _, c := range cases {
		cur := simsPerSec(c.env, map[string][]float64{"SimsPerSec": c.samples})
		rep := Compare(base, cur, Options{})
		row := findRow(t, rep, "SimsPerSec", "sims/sec")
		if row.Verdict != c.want {
			t.Errorf("%s: verdict = %s (delta %+.3f, p=%v), want %s", c.name, row.Verdict, row.Delta, row.P, c.want)
		}
		if wantReg := c.want == VerdictRegression; (rep.Regressions() > 0) != wantReg {
			t.Errorf("%s: Regressions() = %d", c.name, rep.Regressions())
		}
	}
}

// TestPMUOverheadRatioRow: the sampled PMU's cost is a ratio row read
// within the new artifact — SimsPerSecPMU's sampled sims/sec may trail
// the unsampled-sims/sec it alternates with by at most 10% — that
// prints in the table and counts as a regression, and is absent when
// either metric is.
func TestPMUOverheadRatioRow(t *testing.T) {
	env := Env{Go: "go1.24", OS: "linux", Arch: "amd64", NumCPU: 8}
	off := []float64{100, 101, 99, 100, 102}
	pmuArt := func(metrics map[string][]float64) *BenchArtifact {
		metrics["ns/op"] = []float64{1e9, 1e9, 1e9, 1e9, 1e9}
		art := artifact(map[string]map[string][]float64{"SimsPerSecPMU": metrics})
		art.Env = env
		return art
	}
	rowName := ratioRowName("SimsPerSecPMU")
	for _, c := range []struct {
		name string
		on   []float64
		want Verdict
	}{
		{"-7% overhead", []float64{93, 94, 92, 93, 95}, VerdictOK},
		{"-15% overhead", []float64{85, 86, 84, 85, 87}, VerdictRegression},
	} {
		// Old and new are the same run, so every old-vs-new row is ok
		// and only the ratio row can fail. A -tol override of sims/sec
		// widens those rows, never the ratio's fixed budget.
		art := pmuArt(map[string][]float64{"sims/sec": c.on, "unsampled-sims/sec": off})
		for _, opts := range []Options{{}, {Policies: map[string]Policy{"sims/sec": {Tol: 0.5, Dir: HigherIsBetter}}}} {
			rep := Compare(art, art, opts)
			row := findRow(t, rep, rowName, "sims/sec")
			if row.Verdict != c.want || row.Old.Median != 100 {
				t.Errorf("%s: ratio row = %+v, want verdict %s against the 100 sims/sec base", c.name, row, c.want)
			}
			if wantReg := c.want == VerdictRegression; (rep.Regressions() == 1) != wantReg {
				t.Errorf("%s: Regressions() = %d:\n%s", c.name, rep.Regressions(), rep.Render())
			}
			if out := rep.Render(); !strings.Contains(out, rowName) {
				t.Errorf("%s: ratio row missing from the table:\n%s", c.name, out)
			}
		}
	}
	for _, missing := range []string{"sims/sec", "unsampled-sims/sec"} {
		metrics := map[string][]float64{"sims/sec": {85, 86, 84, 85, 87}, "unsampled-sims/sec": off}
		delete(metrics, missing)
		art := pmuArt(metrics)
		for _, row := range Compare(art, art, Options{}).Rows {
			if row.Bench == rowName {
				t.Errorf("without %s: unexpected ratio row %+v", missing, row)
			}
		}
	}
}

// ---- baseline checks ----

func baselineFixture() *SimStats {
	s := NewSimStats([]int{64, 256})
	s.Benchmarks["adpcmdec"] = map[string]*BenchConfigStats{
		"traditional": {
			BufferPct: map[int]float64{64: 20.0, 256: 32.0},
			Cycles:    50000, OpsIssued: 160000, OpsFromBuffer: 51200,
			MemFetches: 108800, StaticOps: 300, NormFetchEnergy: 0.70,
		},
		"aggressive": {
			BufferPct: map[int]float64{64: 85.0, 256: 90.7},
			Cycles:    40972, OpsIssued: 163850, OpsFromBuffer: 163760,
			MemFetches: 90, StaticOps: 320, NormFetchEnergy: 0.28,
		},
	}
	return s
}

func cloneBaseline(t *testing.T, s *SimStats) *SimStats {
	t.Helper()
	out := NewSimStats(s.BufferSizes)
	for bench, cfgs := range s.Benchmarks {
		out.Benchmarks[bench] = map[string]*BenchConfigStats{}
		for cfg, st := range cfgs {
			c := *st
			c.BufferPct = map[int]float64{}
			for k, v := range st.BufferPct {
				c.BufferPct[k] = v
			}
			out.Benchmarks[bench][cfg] = &c
		}
	}
	return out
}

// TestBaselineDriftTwoPoints is the acceptance scenario: a 2-point
// %buffer@256 drift must be caught (the default band is half a point).
func TestBaselineDriftTwoPoints(t *testing.T) {
	want := baselineFixture()
	got := cloneBaseline(t, want)
	got.Benchmarks["adpcmdec"]["aggressive"].BufferPct[256] -= 2.0
	drifts := CompareSimStats(want, got, DefaultBaselineTolerance())
	if len(drifts) != 1 {
		t.Fatalf("drifts = %v, want exactly 1", drifts)
	}
	d := drifts[0]
	if d.Bench != "adpcmdec" || d.Config != "aggressive" || d.Field != "%buffer@256" {
		t.Errorf("drift = %+v", d)
	}
	if !strings.Contains(RenderDrifts(drifts), "%buffer@256") {
		t.Errorf("rendered drift missing field:\n%s", RenderDrifts(drifts))
	}
}

// TestBaselineWithinToleranceClean: sub-band float wiggle passes.
func TestBaselineWithinToleranceClean(t *testing.T) {
	want := baselineFixture()
	got := cloneBaseline(t, want)
	got.Benchmarks["adpcmdec"]["aggressive"].BufferPct[256] += 0.3
	got.Benchmarks["adpcmdec"]["traditional"].NormFetchEnergy += 1e-9
	if drifts := CompareSimStats(want, got, DefaultBaselineTolerance()); len(drifts) != 0 {
		t.Fatalf("unexpected drifts: %v", drifts)
	}
}

// TestBaselineCountDriftExact: counts are exact by default — off by
// one op flags.
func TestBaselineCountDriftExact(t *testing.T) {
	want := baselineFixture()
	got := cloneBaseline(t, want)
	got.Benchmarks["adpcmdec"]["aggressive"].OpsIssued++
	drifts := CompareSimStats(want, got, DefaultBaselineTolerance())
	if len(drifts) != 1 || drifts[0].Field != "ops_issued" {
		t.Fatalf("drifts = %v, want one ops_issued drift", drifts)
	}
}

// TestBaselineShapeChanges: missing configs and new benchmarks both
// demand a baseline regeneration.
func TestBaselineShapeChanges(t *testing.T) {
	want := baselineFixture()
	got := cloneBaseline(t, want)
	delete(got.Benchmarks["adpcmdec"], "traditional")
	got.Benchmarks["newbench"] = map[string]*BenchConfigStats{}
	drifts := CompareSimStats(want, got, DefaultBaselineTolerance())
	if len(drifts) != 2 {
		t.Fatalf("drifts = %v, want 2 (missing config, new benchmark)", drifts)
	}
}

// TestSimStatsRoundTrip: WriteFile/ReadSimStats preserve the document,
// including int-keyed buffer maps.
func TestSimStatsRoundTrip(t *testing.T) {
	want := baselineFixture()
	path := t.TempDir() + "/simstats.json"
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSimStats(path)
	if err != nil {
		t.Fatal(err)
	}
	if drifts := CompareSimStats(want, got, BaselineTolerance{}); len(drifts) != 0 {
		t.Fatalf("round trip drifted: %v", drifts)
	}
}
