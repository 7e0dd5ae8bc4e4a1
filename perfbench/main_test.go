package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks
// the output against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// smoke runs one short invocation and decodes its last output line.
func smoke(t *testing.T, workload string, extra ...string) (int, result, string) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "7", "--seconds", "0.5",
		"--out", t.TempDir(), "--baselines", filepath.Join("..", "baselines", "simstats.json")}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s %v: last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s",
			workload, extra, code, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// checkMetrics asserts the result carries exactly the named metrics,
// each with its BENCHMARK.json unit.
func checkMetrics(t *testing.T, workload string, res result, want map[string]string) {
	t.Helper()
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name)
		if unit, ok := want[name]; !ok {
			t.Errorf("%s: metric %q is not in BENCHMARK.json", workload, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", workload, name, m.Unit, unit)
		}
	}
	if len(got) != len(want) {
		sort.Strings(got)
		t.Errorf("%s: %d metrics %v, BENCHMARK.json names %d", workload, len(got), got, len(want))
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if _, ok := workloads[w.Name]; !ok {
				t.Fatalf("workload %q is not implemented", w.Name)
			}
			code, res, out := smoke(t, w.Name, "--trace", "0")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: exit %d, %+v\n%s", code, res, out)
			}
			checkMetrics(t, w.Name, res, endToEndUnits)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, name, m.Value)
				}
			}

			code, res, out = smoke(t, w.Name, "--trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("traced run: exit %d, %+v\n%s", code, res, out)
			}
			checkMetrics(t, w.Name, res, perLayerUnits)
			if !strings.Contains(out, "per-layer metrics") {
				t.Errorf("%s: traced run printed no per-layer table", w.Name)
			}

			code, res, out = smoke(t, w.Name, "--trace", "0", "--inject-failure")
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Errorf("injected failure: exit %d, %+v\n%s", code, res, out)
			}
			if !strings.Contains(out, "# failed_frac") || strings.Contains(out, "# failed_frac 0.000000") {
				t.Errorf("injected failure: failed_frac not raised\n%s", out)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSeededInputs(t *testing.T) {
	a, b := seededCapacities(3), seededCapacities(3)
	if len(a) != 8 {
		t.Fatalf("capacities %v, want 7 drawn plus 256", a)
	}
	for i := range a {
		if a[i] != b[i] || a[i] < 16 || a[i] > 2048 {
			t.Fatalf("capacities not seeded or out of range: %v vs %v", a, b)
		}
	}
	x, err := genLpbufdInputs(3, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := genLpbufdInputs(3, 40, 5)
	seen := map[int]bool{256: true}
	for i, caps := range x.novel {
		for j, c := range caps {
			if c != y.novel[i][j] {
				t.Fatalf("novel capacities differ for one seed")
			}
			if seen[c] {
				t.Fatalf("capacity %d reused", c)
			}
			seen[c] = true
		}
	}
	for i := range x.keys {
		if x.keys[i] != y.keys[i] {
			t.Fatalf("repeat pool differs for one seed")
		}
	}
}

// TestMain lets set-up probes re-execute the test binary as the
// command itself.
func TestMain(m *testing.M) {
	if os.Getenv(setupProbeEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}
