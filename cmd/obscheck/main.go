// Command obscheck validates the machine-readable artifacts the lpbuf
// tools write: a Chrome trace-event JSON (-trace), a metrics snapshot
// (-metrics), a Prometheus text exposition page (-prom, what lpbufd
// serves at /metrics?format=prom), a cmd/benchjson bench artifact
// (-bench, schema lpbuf/bench/v2), a result artifact
// (-artifact, schema lpbuf.artifact/v1), a sampled guest-PMU profile
// (-simprofile, schema lpbuf.simprofile/v1), and lpbufd's job codec in
// both directions (-job-request lpbuf.job/v1, -job-status
// lpbuf.jobstatus/v1). It is the CI gate that keeps every format
// loadable — the trace in Perfetto / chrome://tracing, the prom page
// by any Prometheus scraper, the rest by downstream tooling pinned to
// their schemas.
//
// Usage:
//
//	obscheck -trace trace.json -metrics metrics.json -bench BENCH_simulator.json
//	obscheck -artifact results.json -job-request spec.json -job-status status.json
//	obscheck -prom metrics.prom -simprofile simprofile.json
//
// Exit status is non-zero with a diagnostic on the first violation.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lpbuf/internal/experiments"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/perfgate"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/service"
)

func main() {
	tracePath := flag.String("trace", "", "Chrome trace-event JSON to validate")
	metricsPath := flag.String("metrics", "", "lpbuf.metrics/v1 snapshot to validate")
	promPath := flag.String("prom", "", "Prometheus text exposition page to validate")
	benchPath := flag.String("bench", "", "lpbuf/bench/v2 artifact to validate")
	artifactPath := flag.String("artifact", "", "lpbuf.artifact/v1 result artifact to validate")
	jobReqPath := flag.String("job-request", "", "lpbuf.job/v1 job request to validate")
	jobStatusPath := flag.String("job-status", "", "lpbuf.jobstatus/v1 job status to validate")
	simProfilePath := flag.String("simprofile", "", "lpbuf.simprofile/v1 sampled PMU profile to validate")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "obscheck: "+format+"\n", args...)
		os.Exit(1)
	}
	if *tracePath == "" && *metricsPath == "" && *promPath == "" && *benchPath == "" &&
		*artifactPath == "" && *jobReqPath == "" && *jobStatusPath == "" && *simProfilePath == "" {
		fail("nothing to check; pass -trace, -metrics, -prom, -bench, -artifact, -job-request, -job-status and/or -simprofile")
	}
	if *artifactPath != "" {
		if err := checkArtifact(*artifactPath); err != nil {
			fail("%s: %v", *artifactPath, err)
		}
	}
	if *jobReqPath != "" {
		if err := checkJobRequest(*jobReqPath); err != nil {
			fail("%s: %v", *jobReqPath, err)
		}
	}
	if *jobStatusPath != "" {
		if err := checkJobStatus(*jobStatusPath); err != nil {
			fail("%s: %v", *jobStatusPath, err)
		}
	}
	if *tracePath != "" {
		if err := checkTrace(*tracePath); err != nil {
			fail("%s: %v", *tracePath, err)
		}
		fmt.Printf("obscheck: %s ok\n", *tracePath)
	}
	if *metricsPath != "" {
		if err := checkMetrics(*metricsPath); err != nil {
			fail("%s: %v", *metricsPath, err)
		}
		fmt.Printf("obscheck: %s ok\n", *metricsPath)
	}
	if *promPath != "" {
		if err := checkProm(*promPath); err != nil {
			fail("%s: %v", *promPath, err)
		}
	}
	if *benchPath != "" {
		if err := checkBench(*benchPath); err != nil {
			fail("%s: %v", *benchPath, err)
		}
	}
	if *simProfilePath != "" {
		if err := checkSimProfile(*simProfilePath); err != nil {
			fail("%s: %v", *simProfilePath, err)
		}
	}
}

// checkSimProfile validates a lpbuf.simprofile/v1 document through the
// same decoder `lpbuf -sim-profile` consumers use, then enforces the
// schema invariants (sample-count bookkeeping, state vocabulary,
// monotone counter series).
func checkSimProfile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	doc, err := pmu.Decode(data)
	if err != nil {
		return err
	}
	if err := doc.Validate(); err != nil {
		return err
	}
	var samples int64
	for _, p := range doc.Profiles {
		samples += p.TotalSamples
	}
	fmt.Printf("obscheck: %s ok (%s, %d profiles, %d samples, period %d)\n",
		path, pmu.Schema, len(doc.Profiles), samples, doc.Sampling.Period)
	return nil
}

// checkArtifact validates a lpbuf.artifact/v1 result artifact through
// the same decoder `lpbuf -submit` uses, and requires at least one
// result section — an artifact with only its header carries no
// evidence any experiment ran.
func checkArtifact(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	art, err := experiments.DecodeArtifact(data)
	if err != nil {
		return err
	}
	sections := 0
	for _, present := range []bool{
		art.Figure7 != nil, art.Figure8a != nil, art.Figure8b != nil,
		art.Figure3 != nil, art.Figure5 != nil, art.Encoding != nil,
		art.Headline != nil, art.Shootout != nil,
	} {
		if present {
			sections++
		}
	}
	if sections == 0 {
		return fmt.Errorf("artifact has no result sections")
	}
	if len(art.Benchmarks) == 0 {
		return fmt.Errorf("artifact lists no benchmarks")
	}
	fmt.Printf("obscheck: %s ok (%s, %d sections, %d benchmarks)\n",
		path, art.Schema, sections, len(art.Benchmarks))
	return nil
}

// checkJobRequest validates a lpbuf.job/v1 spec: it must decode with no
// unknown fields and normalize cleanly, which is exactly the admission
// path a lpbufd submission takes.
func checkJobRequest(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var spec service.JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return fmt.Errorf("not a valid job spec: %v", err)
	}
	norm, err := spec.Normalized()
	if err != nil {
		return fmt.Errorf("spec does not normalize: %v", err)
	}
	key, err := norm.Key()
	if err != nil {
		return fmt.Errorf("spec does not key: %v", err)
	}
	fmt.Printf("obscheck: %s ok (%s, figures %v, key %s…)\n",
		path, service.JobSchema, norm.Figures, key[:12])
	return nil
}

// checkJobStatus validates a lpbuf.jobstatus/v1 response.
func checkJobStatus(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var st service.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("not a valid job status: %v", err)
	}
	if err := st.Validate(); err != nil {
		return err
	}
	fmt.Printf("obscheck: %s ok (%s, %s %s)\n", path, service.StatusSchema, st.ID, st.State)
	return nil
}

// checkBench validates a bench artifact through the same parser
// cmd/benchdiff uses, so "obscheck passes" guarantees "benchdiff can
// read it", and echoes its environment fingerprint and sample count
// for the CI log.
func checkBench(path string) error {
	art, err := perfgate.ReadBenchArtifact(path)
	if err != nil {
		return err
	}
	fmt.Printf("obscheck: %s ok (%s, %d benchmarks, count=%d, go=%s %s/%s)\n",
		path, art.Schema, len(art.Results), art.Count, art.Env.Go, art.Env.OS, art.Env.Arch)
	return nil
}

// traceEvent mirrors the fields every Chrome trace event must carry.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

func checkTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		return fmt.Errorf("no traceEvents")
	}
	var compile, sim bool
	for i, e := range file.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("event %d has no name", i)
		}
		switch e.Ph {
		case "X", "i", "B", "E", "M", "C":
		default:
			return fmt.Errorf("event %d (%q) has unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Ts < 0 {
			return fmt.Errorf("event %d (%q) has negative ts", i, e.Name)
		}
		if e.Ph == "X" && e.Dur <= 0 {
			return fmt.Errorf("complete event %d (%q) has non-positive dur", i, e.Name)
		}
		if e.Pid == 0 || e.Tid == 0 {
			return fmt.Errorf("event %d (%q) missing pid/tid", i, e.Name)
		}
		if e.Name == "compile" {
			compile = true
		}
		if e.Pid == 2 {
			sim = true
		}
	}
	if !compile {
		return fmt.Errorf("no compile-phase span (name %q)", "compile")
	}
	if !sim {
		return fmt.Errorf("no simulator events (pid 2)")
	}
	return nil
}

// checkProm validates a Prometheus text exposition page through the
// same parser internal/obs tests use against WriteProm output (shared
// parser: one grammar, enforced everywhere): metric/label name
// charsets, # TYPE lines present and consistent, no duplicate series
// after label canonicalization, and histogram invariants (cumulative
// buckets, +Inf == _count).
func checkProm(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum, err := obs.CheckProm(data)
	if err != nil {
		return err
	}
	fmt.Printf("obscheck: %s ok (%d families, %d series, %d samples)\n",
		path, sum.Families, sum.Series, sum.Samples)
	return nil
}

func checkMetrics(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var dump struct {
		Schema   string `json:"schema"`
		Registry *struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"registry"`
		Runner *struct {
			JobsRun int64 `json:"jobs_run"`
		} `json:"runner"`
		Loops []struct {
			Run        string `json:"run"`
			Loop       string `json:"loop"`
			BufferHits *int64 `json:"buffer_hits"`
			Energy     *struct {
				Total float64 `json:"total_energy"`
			} `json:"energy"`
		} `json:"loops"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		return fmt.Errorf("not valid JSON: %v", err)
	}
	if dump.Schema != "lpbuf.metrics/v1" {
		return fmt.Errorf("schema %q, want lpbuf.metrics/v1", dump.Schema)
	}
	if dump.Registry == nil {
		return fmt.Errorf("missing registry section")
	}
	for _, key := range []string{"sim.runs", "sim.cycles", "sim.loop.buffer_hits", "sim.loop.buffer_misses"} {
		if _, ok := dump.Registry.Counters[key]; !ok {
			return fmt.Errorf("registry missing counter %q", key)
		}
	}
	if dump.Registry.Counters["sim.runs"] <= 0 {
		return fmt.Errorf("sim.runs = %d, want > 0", dump.Registry.Counters["sim.runs"])
	}
	// The runner section is always present; jobs_run may be 0 when the
	// invocation ran only paths that record no jobs (-bench, -dump,
	// -ablate, -widths).
	if dump.Runner == nil {
		return fmt.Errorf("missing runner section")
	}
	if len(dump.Loops) == 0 {
		return fmt.Errorf("no per-loop attribution rows")
	}
	for i, l := range dump.Loops {
		if l.Run == "" || l.Loop == "" {
			return fmt.Errorf("loop row %d missing run/loop", i)
		}
		if l.BufferHits == nil {
			return fmt.Errorf("loop row %d missing buffer_hits", i)
		}
		if l.Energy == nil {
			return fmt.Errorf("loop row %d missing energy attribution", i)
		}
	}
	return nil
}
