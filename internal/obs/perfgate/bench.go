package perfgate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// BenchSchemaV2 identifies the benchmark artifacts cmd/benchjson
// writes.
const BenchSchemaV2 = "lpbuf/bench/v2"

// Env is the environment fingerprint recorded in an artifact. Two
// artifacts from different environments can still be diffed, but the
// report flags the mismatch and keeps wall-clock verdicts advisory.
type Env struct {
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	Hostname   string `json:"hostname,omitempty"`
}

// Mismatch describes how e differs from o ("" when equivalent for
// benchmarking purposes — hostname differences alone are not flagged).
func (e Env) Mismatch(o Env) string {
	// Zero-valued fields mean "not recorded", so only compare fields
	// both sides actually have.
	switch {
	case e.Go != "" && o.Go != "" && e.Go != o.Go:
		return fmt.Sprintf("go version %s vs %s", e.Go, o.Go)
	case e.OS != "" && o.OS != "" && (e.OS != o.OS || e.Arch != o.Arch):
		return fmt.Sprintf("platform %s/%s vs %s/%s", e.OS, e.Arch, o.OS, o.Arch)
	case e.NumCPU != 0 && o.NumCPU != 0 && e.NumCPU != o.NumCPU:
		return fmt.Sprintf("%d vs %d CPUs", e.NumCPU, o.NumCPU)
	case e.GOMAXPROCS != 0 && o.GOMAXPROCS != 0 && e.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", e.GOMAXPROCS, o.GOMAXPROCS)
	}
	return ""
}

// BenchResult is one benchmark's sample vectors: unit → one value per
// sample (fresh process).
type BenchResult struct {
	Name string `json:"name"`
	// Iterations is the b.N of the last sample's run.
	Iterations int64 `json:"iterations"`
	// Samples maps unit → per-sample values, e.g. "ns/op" →
	// [2.1e9, 2.2e9, 2.1e9].
	Samples map[string][]float64 `json:"samples"`
}

// BenchArtifact is the parsed artifact.
type BenchArtifact struct {
	Schema    string        `json:"schema"`
	Generated time.Time     `json:"generated"`
	Env       Env           `json:"env"`
	Benchtime string        `json:"benchtime"`
	Count     int           `json:"count"`
	Bench     string        `json:"bench"`
	Results   []BenchResult `json:"results"`
}

// Result returns the named benchmark's result, or nil.
func (a *BenchArtifact) Result(name string) *BenchResult {
	for i := range a.Results {
		if a.Results[i].Name == name {
			return &a.Results[i]
		}
	}
	return nil
}

// Names returns the benchmark names in artifact order.
func (a *BenchArtifact) Names() []string {
	names := make([]string, len(a.Results))
	for i := range a.Results {
		names[i] = a.Results[i].Name
	}
	return names
}

// MetricNames returns the sorted union of metric units in r.
func (r *BenchResult) MetricNames() []string {
	names := make([]string, 0, len(r.Samples))
	for unit := range r.Samples {
		names = append(names, unit)
	}
	sort.Strings(names)
	return names
}

// ReadBenchArtifact loads and validates a lpbuf/bench/v2 file.
func ReadBenchArtifact(path string) (*BenchArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseBenchArtifact(data)
}

// ParseBenchArtifact is ReadBenchArtifact over bytes.
func ParseBenchArtifact(data []byte) (*BenchArtifact, error) {
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("not valid JSON: %v", err)
	}
	if probe.Schema != BenchSchemaV2 {
		return nil, fmt.Errorf("unknown bench schema %q (want %s)", probe.Schema, BenchSchemaV2)
	}
	var art BenchArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return nil, fmt.Errorf("%s: %v", BenchSchemaV2, err)
	}
	if err := art.validate(); err != nil {
		return nil, err
	}
	return &art, nil
}

// validate checks the invariants obscheck and benchdiff both rely on.
func (a *BenchArtifact) validate() error {
	if len(a.Results) == 0 {
		return fmt.Errorf("no benchmark results")
	}
	seen := map[string]bool{}
	for i, r := range a.Results {
		if r.Name == "" {
			return fmt.Errorf("result %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("duplicate benchmark %q", r.Name)
		}
		seen[r.Name] = true
		if len(r.Samples) == 0 {
			return fmt.Errorf("%s: no metrics", r.Name)
		}
		ns, ok := r.Samples["ns/op"]
		if !ok {
			return fmt.Errorf("%s: missing ns/op", r.Name)
		}
		want := len(ns)
		for unit, vs := range r.Samples {
			if len(vs) == 0 {
				return fmt.Errorf("%s: metric %q has no samples", r.Name, unit)
			}
			if len(vs) != want {
				return fmt.Errorf("%s: metric %q has %d samples, ns/op has %d", r.Name, unit, len(vs), want)
			}
			for _, v := range vs {
				if v != v { // NaN
					return fmt.Errorf("%s: metric %q has NaN sample", r.Name, unit)
				}
			}
			if unit == "ns/op" {
				for _, v := range vs {
					if v <= 0 {
						return fmt.Errorf("%s: non-positive ns/op sample %v", r.Name, v)
					}
				}
			}
		}
	}
	return nil
}
