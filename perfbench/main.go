// Command perfbench is the lpbuf repository's benchmark. It drives one
// workload from a single process through the layers' public APIs,
// checks every output, and prints one JSON result as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with --trace 1 the run measures the workload once
// untraced and once traced, and the metrics are the per-layer ones.
// Run it from the repository root (it reads baselines/simstats.json);
// perfbench/run.sh builds it with a checkout-local Go cache and runs
// it. README.md defines the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"lpbuf/internal/obs/perfgate"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// out holds trace artifacts, lpbufd stores and the lpbufd log.
	out string
	// inject corrupts one expected value so a check must fail (the
	// self-test uses it to prove failures reach the result).
	inject bool
	// base holds the golden simulator statistics the checks compare
	// against.
	base *perfgate.SimStats
	// args are the invocation's arguments, for set-up probes.
	args []string
}

// processStart is when this process started, for setup_s: the main
// package initialises after every package it imports, which took
// 1.5 ms from exec on a 2-core x86-64 host.
var processStart = time.Now()

// setup_s is the median of the measured process's own set-up and those
// of fresh processes of this command started after the measurement
// (set-up probes): the benchmark registry is built once per process, so
// only a new process repeats the whole path to the first measured op.
// Probes run until maxSetups set-ups are timed or they have spent
// probeBudget.
const (
	setupProbeEnv = "PERFBENCH_SETUP_PROBE"
	maxSetups     = 9
	probeBudget   = 4 * time.Second
)

// phase is what one measured phase of a workload produced.
type phase struct {
	// attempted and failed count the phase's verified operations.
	attempted, failed int
	failures          []string
	// tpOps operations completed in tpWall give throughput_ops_s. (On
	// a 2-core host whose speed swings round to round, this total rate
	// spread less across runs than the median or best round rate.)
	tpOps  int
	tpWall time.Duration
	// latMS are the latency samples the report describes; p90MS is
	// latency_p90_ms, which each workload derives from its samples.
	latMS []float64
	p90MS float64
	// report lines describe the phase for a human reader.
	report []string
	// layers holds the per-layer metrics of a traced phase.
	layers map[string]float64
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *phase) throughput() float64 {
	if p.tpWall <= 0 {
		return 0
	}
	return float64(p.tpOps) / p.tpWall.Seconds()
}

// instance is one set-up workload, ready to measure.
type instance interface {
	measure(traced bool) (*phase, error)
	close()
}

// workload sets up an instance.
type workload func(cfg *config) (instance, error)

var workloads = map[string]workload{
	"reproduce":      setupReproduce,
	"lpbufd-mixed":   setupLpbufd,
	"shootout-exact": setupShootout,
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code: 0
// when every operation passed its checks, 1 when a check failed (the
// result is still printed) or the run could not complete (no result),
// 2 on bad arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: reproduce, lpbufd-mixed or shootout-exact")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench", "out"), "directory for traces, stores and logs")
	baselines := fs.String("baselines", filepath.Join("baselines", "simstats.json"), "golden simulator statistics")
	inject := fs.Bool("inject-failure", false, "corrupt one expected value so a check fails (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	base, err := perfgate.ReadSimStats(*baselines)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := &config{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		out: *out, inject: *inject, base: base, args: args}
	if os.Getenv(setupProbeEnv) == "1" {
		return runProbe(w, cfg, stdout, stderr)
	}

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# env %s\n", hostEnv())
	var res *result
	if cfg.traced {
		res, err = runTraced(w, cfg, stdout)
	} else {
		res, err = runUntraced(w, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runUntraced sets the workload up once, measures it with tracing off
// and reports the end-to-end metrics. setup_s runs from process start
// to the first measured op: flags, baselines, the benchmark registry
// and the workload's own set-up.
func runUntraced(setup workload, cfg *config, stdout io.Writer) (*result, error) {
	inst, err := setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups := []float64{time.Since(processStart).Seconds()}
	ph, err := inst.measure(false)
	inst.close()
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	if setups, err = probeSetups(cfg, setups); err != nil {
		return nil, err
	}
	printPhase(stdout, ph)
	lat := sortedCopy(ph.latMS)
	values := map[string]float64{
		"setup_s":          median(setups),
		"throughput_ops_s": ph.throughput(),
		"latency_p90_ms":   ph.p90MS,
		"rss_peak_mb":      rss,
	}
	fmt.Fprintf(stdout, "# setup_s samples %s s (this process first, then fresh processes; median reported)\n",
		formatFloats(setups, 4))
	fmt.Fprintf(stdout, "# %s\n", describeLatency(lat))
	return finish(ph, endToEnd, values, stdout)
}

// runProbe is a set-up probe's whole run: set the workload up, print
// the time from process start as the last line, and tear it down.
func runProbe(setup workload, cfg *config, stdout, stderr io.Writer) int {
	inst, err := setup(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup probe: %v\n", err)
		return 1
	}
	d := time.Since(processStart)
	inst.close()
	fmt.Fprintf(stdout, "%.9f\n", d.Seconds())
	return 0
}

// probeSetups times the set-up of fresh processes of this command, one
// at a time, and appends their times to setups. Probes keep their
// stores and logs in a subdirectory of the output directory.
func probeSetups(cfg *config, setups []float64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append(append([]string(nil), cfg.args...), "--out", filepath.Join(cfg.out, "probe"))
	start := time.Now()
	for len(setups) < maxSetups && time.Since(start) < probeBudget {
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), setupProbeEnv+"=1")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		fields := strings.Fields(string(out))
		if len(fields) == 0 {
			return nil, errors.New("setup probe printed nothing")
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		setups = append(setups, v)
	}
	return setups, nil
}

// runTraced measures the workload untraced (the reference for
// trace.overhead_pct), then sets up again and measures it traced, and
// reports the per-layer metrics of the traced phase.
func runTraced(setup workload, cfg *config, stdout io.Writer) (*result, error) {
	measure := func(traced bool) (*phase, error) {
		inst, err := setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		defer inst.close()
		runtime.GC()
		return inst.measure(traced)
	}
	ref, err := measure(false)
	if err != nil {
		return nil, err
	}
	ph, err := measure(true)
	if err != nil {
		return nil, err
	}
	printPhase(stdout, ph)
	values := ph.layers
	if values == nil {
		values = map[string]float64{}
	}
	if tp := ph.throughput(); tp > 0 {
		values["trace.overhead_pct"] = 100 * (ref.throughput()/tp - 1)
	}
	fmt.Fprintf(stdout, "# untraced reference: %d ops, %.4g ops/s; traced: %d ops, %.4g ops/s\n",
		ref.attempted, ref.throughput(), ph.attempted, ph.throughput())
	printLayerTable(stdout, cfg.workload, values)
	ph.attempted += ref.attempted
	ph.failed += ref.failed
	ph.failures = append(ref.failures, ph.failures...)
	return finish(ph, perLayer, values, stdout)
}

// finish assembles the result: every metric of defs with its unit,
// and the failure tally.
func finish(ph *phase, defs []metricDef, values map[string]float64, stdout io.Writer) (*result, error) {
	res := &result{Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		return nil, errors.New("no operation completed; raise --seconds")
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	for _, f := range ph.failures {
		fmt.Fprintf(stdout, "# FAILED %s\n", f)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(stdout, "# failed_frac %.6f (%d of %d ops)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

func printPhase(w io.Writer, ph *phase) {
	for _, l := range ph.report {
		fmt.Fprintf(w, "# %s\n", l)
	}
}

// hostEnv records what the numbers were measured on.
func hostEnv() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s host=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), host)
}
