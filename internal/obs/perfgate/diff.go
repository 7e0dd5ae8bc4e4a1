package perfgate

import (
	"fmt"
	"math"
	"strings"
)

// Direction says which way a metric is allowed to move.
type Direction int

const (
	// LowerIsBetter flags increases beyond tolerance (ns/op, B/op).
	LowerIsBetter Direction = iota
	// HigherIsBetter flags decreases beyond tolerance.
	HigherIsBetter
	// TwoSided flags movement in either direction — the policy for
	// deterministic paper metrics, where any drift is functional drift.
	TwoSided
)

// Policy is one metric's tolerance band.
type Policy struct {
	// Tol is the relative tolerance on the median delta (0 = exact).
	Tol float64
	// Dir selects which deltas count as regressions.
	Dir Direction
	// Deterministic metrics skip the significance gate: the simulator
	// is deterministic, so a changed median is a real change even with
	// one sample per side.
	Deterministic bool
}

// DefaultPolicies returns the per-metric tolerance bands used when the
// caller supplies no overrides. Wall-clock and allocation metrics get
// noise bands and a significance gate; the paper's functional metrics
// are exact and two-sided.
func DefaultPolicies() map[string]Policy {
	return map[string]Policy{
		"ns/op":     {Tol: 0.05, Dir: LowerIsBetter},
		"B/op":      {Tol: 0.03, Dir: LowerIsBetter},
		"allocs/op": {Tol: 0.01, Dir: LowerIsBetter},
		// sims/sec is the sweep's sustained throughput
		// (BenchmarkSimsPerSec): wall-clock derived, so it gets a noise
		// band and the significance gate like ns/op, but higher is
		// better.
		"sims/sec": {Tol: 0.10, Dir: HigherIsBetter},
		// unsampled-sims/sec is BenchmarkSimsPerSecPMU's sampling-off
		// rate, measured between its sampled sweeps: sims/sec's band.
		"unsampled-sims/sec": {Tol: 0.10, Dir: HigherIsBetter},
		// ns/ir-op is BenchmarkInterp's wall clock per interpreted IR
		// op, ns/kernel BenchmarkModuloHeuristic's per pipelined
		// kernel, ns/sim-op BenchmarkExecute's per simulated op,
		// ns/plan BenchmarkFold's per folded plan and ns/round
		// BenchmarkShootout's per shoot-out round: noise bands like
		// ns/op's.
		"ns/ir-op":  {Tol: 0.05, Dir: LowerIsBetter},
		"ns/kernel": {Tol: 0.05, Dir: LowerIsBetter},
		"ns/sim-op": {Tol: 0.05, Dir: LowerIsBetter},
		"ns/plan":   {Tol: 0.05, Dir: LowerIsBetter},
		"ns/round":  {Tol: 0.05, Dir: LowerIsBetter},
	}
}

// ratioPolicies are the policy rows Compare reads within the new
// artifact alone: Bench's Metric samples are judged against its Base
// metric's under Policy, with Base in the old column. Both sides come
// from one benchmark that alternates the two measurements, so the row
// needs no recorded baseline, holds on any host and sees no drift
// between them.
var ratioPolicies = []struct {
	Bench, Metric, Base string
	Policy
}{
	// Guest-PMU sampling at its default period may cost at most 10% of
	// the unsampled sweep throughput measured beside it.
	{"SimsPerSecPMU", "sims/sec", "unsampled-sims/sec", Policy{Tol: 0.10, Dir: HigherIsBetter}},
}

// ratioRowName names a ratio row's bench column.
func ratioRowName(bench string) string { return bench + ":sampled/unsampled" }

// policyFor resolves the policy for one metric: explicit override,
// then the defaults table, then the deterministic-exact fallback for
// custom b.ReportMetric units. Every custom unit this repo emits that
// is not in the defaults table — %buffer@N, sim-ops/run, ir-ops/run,
// kernels/run, search-nodes/round, avg-speedup — is a deterministic
// fact of the program, so unknown units default to exact two-sided;
// wall-clock-derived units (sims/sec, ns/ir-op, ns/kernel, ns/sim-op,
// ns/plan, ns/round) must instead be listed above with a noise band.
func policyFor(name string, overrides map[string]Policy) Policy {
	if p, ok := overrides[name]; ok {
		return p
	}
	if p, ok := DefaultPolicies()[name]; ok {
		return p
	}
	return Policy{Tol: 0, Dir: TwoSided, Deterministic: true}
}

// Verdict classifies one metric comparison.
type Verdict string

const (
	VerdictOK          Verdict = "ok"          // within tolerance
	VerdictInsig       Verdict = "~"           // beyond tolerance but not significant
	VerdictRegression  Verdict = "REGRESSION"  // beyond tolerance, wrong direction, significant
	VerdictImprovement Verdict = "improvement" // beyond tolerance, good direction, significant
	VerdictMissing     Verdict = "MISSING"     // metric/benchmark present in old, absent in new
	VerdictNew         Verdict = "new"         // present only in new (informational)
)

// Summary is one side's sample summary.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
}

func summarize(xs []float64) Summary {
	return Summary{N: len(xs), Median: Median(xs), MAD: MAD(xs)}
}

// Row is one (benchmark, metric) comparison.
type Row struct {
	Bench  string  `json:"bench"`
	Metric string  `json:"metric"`
	Old    Summary `json:"old"`
	New    Summary `json:"new"`
	// Delta is (newMedian - oldMedian) / |oldMedian| (absolute delta
	// when the old median is 0).
	Delta float64 `json:"delta"`
	// P is the Mann–Whitney p-value; NaN when no test was run (too few
	// samples, or a deterministic metric).
	P       float64 `json:"p,omitempty"`
	Verdict Verdict `json:"verdict"`
	Note    string  `json:"note,omitempty"`
}

// Options configures a comparison.
type Options struct {
	// Alpha is the significance level for the Mann–Whitney gate
	// (default 0.05).
	Alpha float64
	// Policies overrides per-metric tolerance bands of old-vs-new rows;
	// a ratio row keeps its own band.
	Policies map[string]Policy
	// MinSamples is the per-side sample count below which a noisy
	// metric's tolerance breach stays advisory ("~") instead of
	// failing: with fewer samples Mann–Whitney cannot reach p < 0.05,
	// so there is no statistical basis to call the breach real
	// (default 4 — the smallest n1=n2 where significance is
	// attainable). Deterministic metrics are unaffected.
	MinSamples int
	// AllowMissing downgrades benchmarks/metrics that vanished from
	// the new artifact to informational notes instead of regressions.
	AllowMissing bool
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 4
	}
	return o
}

// Report is the outcome of comparing two bench artifacts.
type Report struct {
	OldLabel string  `json:"old"`
	NewLabel string  `json:"new"`
	EnvNote  string  `json:"env_note,omitempty"`
	Alpha    float64 `json:"alpha"`
	Rows     []Row   `json:"rows"`
}

// Regressions counts failing rows (REGRESSION and, unless downgraded,
// MISSING).
func (r *Report) Regressions() int {
	n := 0
	for _, row := range r.Rows {
		if row.Verdict == VerdictRegression || row.Verdict == VerdictMissing {
			n++
		}
	}
	return n
}

// Compare diffs two artifacts metric by metric, then appends one row
// per ratio policy whose two metrics the new artifact carries. Row
// order follows the old artifact's benchmark order (new-only
// benchmarks append at the end), with metrics sorted within a
// benchmark. When the environments differ, old-vs-new rows of noisy
// metrics stay advisory ("~") beyond tolerance; deterministic rows, and
// ratio rows, which read one artifact, still gate.
func Compare(old, cur *BenchArtifact, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{Alpha: opts.Alpha}
	if note := old.Env.Mismatch(cur.Env); note != "" {
		rep.EnvNote = "environments differ: " + note + "; wall-clock comparisons are advisory"
	}
	crossEnv := rep.EnvNote != ""
	for _, name := range old.Names() {
		or := old.Result(name)
		nr := cur.Result(name)
		if nr == nil {
			v := VerdictMissing
			note := "benchmark missing from new artifact"
			if opts.AllowMissing {
				v, note = VerdictNew, "benchmark only in old artifact (ignored)"
			}
			rep.Rows = append(rep.Rows, Row{Bench: name, Metric: "*", Verdict: v, Note: note, P: math.NaN()})
			continue
		}
		rep.Rows = append(rep.Rows, compareResult(or, nr, opts, crossEnv)...)
	}
	for _, name := range cur.Names() {
		if old.Result(name) == nil {
			rep.Rows = append(rep.Rows, Row{Bench: name, Metric: "*", Verdict: VerdictNew,
				Note: "benchmark only in new artifact", P: math.NaN()})
		}
	}
	for _, rp := range ratioPolicies {
		bench := cur.Result(rp.Bench)
		if bench == nil || bench.Samples[rp.Metric] == nil || bench.Samples[rp.Base] == nil {
			continue
		}
		row := compareMetric(ratioRowName(rp.Bench), rp.Metric, rp.Policy,
			bench.Samples[rp.Base], bench.Samples[rp.Metric], opts, false)
		row.Note = strings.TrimSuffix("within new artifact; "+row.Note, "; ")
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

// compareResult diffs one benchmark's metrics.
func compareResult(or, nr *BenchResult, opts Options, crossEnv bool) []Row {
	var rows []Row
	for _, unit := range or.MetricNames() {
		os_ := or.Samples[unit]
		ns, ok := nr.Samples[unit]
		if !ok {
			v := VerdictMissing
			note := "metric missing from new artifact"
			if opts.AllowMissing {
				v, note = VerdictNew, "metric only in old artifact (ignored)"
			}
			rows = append(rows, Row{Bench: or.Name, Metric: unit, Old: summarize(os_),
				Verdict: v, Note: note, P: math.NaN()})
			continue
		}
		rows = append(rows, compareMetric(or.Name, unit, policyFor(unit, opts.Policies), os_, ns, opts, crossEnv))
	}
	for _, unit := range nr.MetricNames() {
		if _, ok := or.Samples[unit]; !ok {
			rows = append(rows, Row{Bench: or.Name, Metric: unit, New: summarize(nr.Samples[unit]),
				Verdict: VerdictNew, Note: "metric only in new artifact", P: math.NaN()})
		}
	}
	return rows
}

// compareMetric applies the tolerance band and significance gate to
// one metric's sample vectors. crossEnv keeps a noisy metric's
// tolerance breach advisory: wall clock measured on two different
// machines proves nothing either way.
func compareMetric(bench, unit string, pol Policy, oldS, newS []float64, opts Options, crossEnv bool) Row {
	row := Row{Bench: bench, Metric: unit, Old: summarize(oldS), New: summarize(newS), P: math.NaN()}
	if row.Old.Median != 0 {
		row.Delta = (row.New.Median - row.Old.Median) / math.Abs(row.Old.Median)
	} else {
		row.Delta = row.New.Median - row.Old.Median
	}
	beyond := math.Abs(row.Delta) > pol.Tol
	if !beyond {
		row.Verdict = VerdictOK
		return row
	}
	worse := false
	switch pol.Dir {
	case LowerIsBetter:
		worse = row.Delta > 0
	case HigherIsBetter:
		worse = row.Delta < 0
	case TwoSided:
		worse = true
	}
	if pol.Deterministic {
		// Deterministic metrics need no statistics: a changed median is
		// a real change.
		if worse {
			row.Verdict = VerdictRegression
			row.Note = "deterministic metric drifted"
		} else {
			row.Verdict = VerdictImprovement
		}
		return row
	}
	if crossEnv {
		row.Verdict = VerdictInsig
		row.Note = "beyond tolerance; environments differ"
		return row
	}
	if min(row.Old.N, row.New.N) < opts.MinSamples {
		// A noisy metric needs significance to fail the gate, and below
		// MinSamples per side the Mann–Whitney test cannot reach
		// p < 0.05 (n=3+3 bottoms out at p=0.1). Flagging a tolerance
		// breach here would fail clean same-commit runs on a loaded
		// machine, so the row stays advisory.
		row.Verdict = VerdictInsig
		row.Note = fmt.Sprintf("beyond tolerance; n=%d+%d too small for significance test", row.Old.N, row.New.N)
		return row
	}
	row.P = MannWhitney(oldS, newS)
	if row.P >= opts.Alpha {
		row.Verdict = VerdictInsig
		row.Note = "beyond tolerance but not significant"
		return row
	}
	if worse {
		row.Verdict = VerdictRegression
	} else {
		row.Verdict = VerdictImprovement
	}
	return row
}

// ---- rendering ----

// Render formats the report as a benchstat-style text table.
func (r *Report) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "benchdiff: %s -> %s (alpha %.3g)\n", orDash(r.OldLabel), orDash(r.NewLabel), r.Alpha)
	if r.EnvNote != "" {
		fmt.Fprintf(&sb, "note: %s\n", r.EnvNote)
	}
	w := tableWriter{&sb}
	w.row("benchmark", "metric", "old", "new", "delta", "", "")
	for _, row := range r.Rows {
		w.row(row.Bench, row.Metric, formatSide(row.Old), formatSide(row.New),
			formatDelta(row), formatP(row), verdictCell(row))
	}
	reg := r.Regressions()
	if reg == 0 {
		sb.WriteString("no significant regressions\n")
	} else {
		fmt.Fprintf(&sb, "%d significant regression(s)\n", reg)
	}
	return sb.String()
}

// Markdown formats the report for the CI artifact.
func (r *Report) Markdown() string {
	var sb strings.Builder
	sb.WriteString("# benchdiff report\n\n")
	fmt.Fprintf(&sb, "Comparing `%s` → `%s` at alpha %.3g.\n\n", orDash(r.OldLabel), orDash(r.NewLabel), r.Alpha)
	if r.EnvNote != "" {
		fmt.Fprintf(&sb, "> **Note:** %s\n\n", r.EnvNote)
	}
	sb.WriteString("| benchmark | metric | old | new | delta | p | verdict |\n")
	sb.WriteString("|---|---|---|---|---|---|---|\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "| %s | %s | %s | %s | %s | %s | %s |\n",
			row.Bench, row.Metric, formatSide(row.Old), formatSide(row.New),
			formatDelta(row), formatP(row), verdictCell(row))
	}
	reg := r.Regressions()
	if reg == 0 {
		sb.WriteString("\nNo significant regressions.\n")
	} else {
		fmt.Fprintf(&sb, "\n**%d significant regression(s).**\n", reg)
	}
	return sb.String()
}

type tableWriter struct{ sb *strings.Builder }

func (w tableWriter) row(cells ...string) {
	widths := []int{26, 16, 18, 18, 9, 16, 0}
	for i, c := range cells {
		if i > 0 {
			w.sb.WriteString("  ")
		}
		if widths[i] > 0 {
			fmt.Fprintf(w.sb, "%-*s", widths[i], c)
		} else {
			w.sb.WriteString(c)
		}
	}
	// Trim trailing spaces so empty tail cells do not pad the line.
	s := w.sb.String()
	trimmed := strings.TrimRight(s, " ")
	w.sb.Reset()
	w.sb.WriteString(trimmed)
	w.sb.WriteString("\n")
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func formatSide(s Summary) string {
	if s.N == 0 {
		return "-"
	}
	spread := ""
	if s.N > 1 {
		pct := 0.0
		if s.Median != 0 {
			pct = 100 * s.MAD / math.Abs(s.Median)
		}
		spread = fmt.Sprintf(" ±%.0f%%", pct)
	}
	return formatValue(s.Median) + spread
}

// formatValue renders a metric value compactly with SI-ish scaling for
// big magnitudes (ns/op values are in the billions).
func formatValue(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.3gk", v/1e3)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func formatDelta(row Row) string {
	if row.Old.N == 0 || row.New.N == 0 {
		return "-"
	}
	if row.Delta == 0 {
		return "~"
	}
	if row.Old.Median != 0 {
		return fmt.Sprintf("%+.1f%%", 100*row.Delta)
	}
	return fmt.Sprintf("%+.4g", row.Delta)
}

func formatP(row Row) string {
	if math.IsNaN(row.P) {
		return ""
	}
	return fmt.Sprintf("p=%.3f n=%d+%d", row.P, row.Old.N, row.New.N)
}

func verdictCell(row Row) string {
	s := string(row.Verdict)
	if row.Note != "" {
		s += " (" + row.Note + ")"
	}
	return s
}
