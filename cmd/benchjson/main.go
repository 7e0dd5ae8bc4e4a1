// Command benchjson runs the repository's top-level benchmarks and
// writes a machine-readable artifact (BENCH_simulator.json by default)
// in the lpbuf/bench/v2 schema: per-metric *sample vectors* — one
// sample per fresh `go test` process — plus an environment
// fingerprint, so cmd/benchdiff can attach variance and significance
// to every comparison instead of diffing two noisy point values.
//
// Usage:
//
//	go run ./cmd/benchjson [-bench groups] [-benchtime 1x] [-count 3] [-out BENCH_simulator.json]
//
// -bench is a comma-separated list of process groups; each group is a
// benchmark-name alternation run in a fresh `go test` process, and
// -count N runs every group in N fresh processes (one sample each).
// Fresh processes keep the suite's compile memoization from flattering
// repeat numbers, so each sample measures cold first-run work. Decoded
// images no longer need them: an image lives with its compile, and the
// simulator keeps nothing across compiles. Grouping the two Figure 7
// benches together preserves the shared-suite amortization (one
// benchmark-registry build, per-config compiles) that a real `go test
// -bench BenchmarkFigure7` run gets. This is the same methodology the
// recorded baselines used.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lpbuf/internal/obs/perfgate"
)

// sample is one benchmark's parsed report from one process.
type sample struct {
	name       string
	iterations int64
	metrics    map[string]float64
}

// benchLine matches `BenchmarkName-8  	  10  	123 ns/op  	5 B/op ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	bench := flag.String("bench", "BenchmarkFigure7Traditional|BenchmarkFigure7Aggressive,BenchmarkSimulatorThroughput,BenchmarkSimsPerSec|BenchmarkSimsPerSecPMU,BenchmarkInterp,BenchmarkModuloHeuristic,BenchmarkExecute,BenchmarkFold,BenchmarkShootout", "comma-separated process groups; each group is a benchmark-name alternation run in fresh processes")
	benchtime := flag.String("benchtime", "1x", "passed to go test -benchtime")
	count := flag.Int("count", 3, "samples per group; each sample is one fresh go test process")
	out := flag.String("out", "BENCH_simulator.json", "output file")
	pkg := flag.String("pkg", ".", "package containing the benchmarks")
	flag.Parse()
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "benchjson: -count must be >= 1")
		os.Exit(2)
	}

	host, _ := os.Hostname()
	art := perfgate.BenchArtifact{
		Schema:    perfgate.BenchSchemaV2,
		Generated: time.Now().UTC(),
		Env: perfgate.Env{
			Go:         runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Hostname:   host,
		},
		Benchtime: *benchtime,
		Count:     *count,
		Bench:     *bench,
	}

	// results[name] accumulates sample vectors in first-seen order.
	var order []string
	results := map[string]*perfgate.BenchResult{}
	for _, pat := range strings.Split(*bench, ",") {
		// One fresh process per sample: every sample of every group
		// measures its cold first execution, never a cache-warmed rerun.
		for i := 0; i < *count; i++ {
			samples, err := runOne(*pkg, "^("+pat+")$", *benchtime)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %s (sample %d): %v\n", pat, i+1, err)
				os.Exit(1)
			}
			for _, s := range samples {
				r := results[s.name]
				if r == nil {
					r = &perfgate.BenchResult{Name: s.name, Samples: map[string][]float64{}}
					results[s.name] = r
					order = append(order, s.name)
				}
				r.Iterations = s.iterations
				for unit, v := range s.metrics {
					r.Samples[unit] = append(r.Samples[unit], v)
				}
			}
			if i == 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %s: %d benchmark(s), %d sample(s) each\n",
					pat, len(samples), *count)
			}
		}
	}
	for _, name := range order {
		art.Results = append(art.Results, *results[name])
	}

	data, err := json.MarshalIndent(&art, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks, %d samples each)\n", *out, len(art.Results), *count)
}

// runOne executes one `go test -bench` process and parses its reports
// (one sample per benchmark).
func runOne(pkg, pattern, benchtime string) ([]sample, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern,
		"-benchtime", benchtime,
		"-count", "1",
		"-benchmem", "-timeout", "1800s", pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test: %w\n%s", err, buf.String())
	}
	var samples []sample
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		s := sample{
			name:       strings.TrimPrefix(trimProcSuffix(m[1]), "Benchmark"),
			iterations: iters,
			metrics:    map[string]float64{},
		}
		// The tail is value/unit pairs: `123 ns/op  5 B/op  2 allocs/op`.
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			s.metrics[fields[i+1]] = v
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark output matched %q", pattern)
	}
	return samples, nil
}

// trimProcSuffix strips the -GOMAXPROCS suffix Go appends to names.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}
