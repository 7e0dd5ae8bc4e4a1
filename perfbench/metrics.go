package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. The two tables
// below must match BENCHMARK.json's end_to_end and per_layer lists
// (the self-test checks that they do).
type metricDef struct{ name, unit string }

// endToEnd metrics come from untraced runs. Every workload reports
// each of them; README.md gives the per-workload definitions. Medians
// are printed beside them but not gated: lpbufd's store-hit median
// moves 15% between identical runs on a 2-core host.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_p90_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer metrics come from the traced phase. Times and counts are per
// verified operation of the workload ("/op"), so runs of different
// lengths compare; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"interp.ms", "ms/op"},
	{"interp.ops", "count/op"},
	{"interp.ns_per_op", "ns"},
	{"core.compile_ms", "ms/op"},
	{"core.inline_ms", "ms/op"},
	{"core.opt_ms", "ms/op"},
	{"core.transform_ms", "ms/op"},
	{"core.cloopify_ms", "ms/op"},
	{"core.compile_self_ms", "ms/op"},
	{"core.final_ir_ops", "count/op"},
	{"sched.ms", "ms/op"},
	{"sched.kernels", "count/op"},
	{"optimal.ms", "ms/op"},
	{"optimal.nodes", "count/op"},
	{"optimal.us_per_node", "us"},
	{"optimal.fallbacks", "count/op"},
	{"loopbuffer.ms", "ms/op"},
	{"loopbuffer.planned_loops", "count/op"},
	{"vliw.ms", "ms/op"},
	{"vliw.sim_ops", "count/op"},
	{"vliw.plans", "count/op"},
	{"vliw.ns_per_sim_op", "ns"},
	{"pmu.samples", "count/op"},
	{"runner.compile_ms", "ms/op"},
	{"runner.simulate_ms", "ms/op"},
	{"runner.compile_jobs", "count/op"},
	{"runner.simulate_jobs", "count/op"},
	{"runner.peak_in_flight", "count"},
	{"experiments.run_hit_ratio", "ratio"},
	{"service.queue_ms", "ms/op"},
	{"service.server_ms", "ms/op"},
	{"service.http_ms", "ms/op"},
	{"service.build_ms", "ms/op"},
	{"service.store_hit_ratio", "ratio"},
	{"service.rejected", "count"},
	{"service.alloc_mb_per_job", "MB"},
	{"store.lookup_ms", "ms/op"},
	{"store.write_ms", "ms/op"},
	{"runtime.alloc_mb_per_op", "MB/op"},
	{"runtime.gc_pause_ms", "ms/op"},
	{"runtime.gc_cycles", "count/op"},
	{"client.lateness_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the closest ranks of sorted
// samples (the "linear" method of numpy and R type 7).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// describeLatency reports sorted latency samples as a median, the p90
// and the tail: the highest whole percentile that still has at least
// ten samples beyond it.
func describeLatency(sorted []float64) string {
	n := len(sorted)
	s := fmt.Sprintf("latency p50 %.4f ms, p90 %.4f ms", quantile(sorted, 0.5), quantile(sorted, 0.9))
	if tail := math.Floor(100 * (1 - 10/float64(n))); tail > 50 {
		s += fmt.Sprintf(", tail p%.0f %.4f ms", tail, quantile(sorted, tail/100))
	}
	return s + fmt.Sprintf(" (n=%d)", n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func formatFloats(xs []float64, digits int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', digits, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// printLayerTable prints the traced phase's per-layer metrics.
func printLayerTable(w io.Writer, workload string, values map[string]float64) {
	fmt.Fprintf(w, "# per-layer metrics, %s (per op unless the unit says otherwise)\n", workload)
	for _, d := range perLayer {
		fmt.Fprintf(w, "#   %-28s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}
