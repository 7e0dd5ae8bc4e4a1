package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"lpbuf/internal/obs"
)

// chromeSpan is one event of a Chrome trace-event document, as
// obs.WriteChromeTrace writes it (ts and dur in microseconds).
type chromeSpan struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// parseChrome decodes a Chrome trace-event document.
func parseChrome(data []byte) ([]chromeSpan, error) {
	var file struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return file.TraceEvents, nil
}

// chromeOf renders an in-memory trace the way the trace artifact is
// written, so the benchmark reads the program's spans only through
// their public export.
func chromeOf(t *obs.Trace) ([]chromeSpan, error) {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, t, nil); err != nil {
		return nil, err
	}
	return parseChrome(buf.Bytes())
}

// compilePhases are the direct children of core.Compile's "compile"
// span; the root's self time is what they leave uncovered (verifier
// checkpoints, IR clones, program validation).
var compilePhases = []string{"reference-run", "inline", "opt", "transform", "cloopify", "re-profile", "schedule", "bufplan"}

// jobPhases are the direct children of an lpbufd job's root span.
var jobPhases = []string{"queue_wait", "store_lookup", "build", "store_write"}

// spanTotals aggregates host spans (pid 1) into per-layer microsecond
// totals and the counts their attributes carry.
type spanTotals struct {
	// compile roots: total, phase children, schedule time inside
	// exact-backend compiles, and attribute counts.
	compiles     int
	compileUS    int64
	phaseUS      map[string]int64
	optimalUS    int64
	finalOps     int64
	plannedLoops int64
	kernels      int64
	// runner job spans by name ("job.compile", "job.simulate", ...).
	jobUS    map[string]int64
	jobCount map[string]int
	// lpbufd job roots and their phase children.
	svcJobs   int
	svcRootUS int64
	svcUS     map[string]int64
	// peakJobs is the most runner job spans overlapping on one trace.
	peakJobs int
	dropped  bool
}

func newSpanTotals() *spanTotals {
	return &spanTotals{phaseUS: map[string]int64{}, jobUS: map[string]int64{},
		jobCount: map[string]int{}, svcUS: map[string]int64{}}
}

func argInt(args map[string]any, key string) int64 {
	if v, ok := args[key].(float64); ok {
		return int64(v)
	}
	return 0
}

// add folds one trace document into the totals. Root spans open their
// own track (tid); a root's children share it.
func (t *spanTotals) add(spans []chromeSpan) {
	roots := map[int64]chromeSpan{}
	byTid := map[int64][]chromeSpan{}
	var jobs []chromeSpan
	for _, s := range spans {
		if s.Pid != 1 || s.Ph != "X" {
			continue
		}
		switch {
		case s.Name == "trace: dropped spans":
			t.dropped = true
		case s.Name == "compile" || s.Name == "job":
			roots[s.Tid] = s
		case strings.HasPrefix(s.Name, "job."):
			t.jobUS[s.Name] += s.Dur
			t.jobCount[s.Name]++
			jobs = append(jobs, s)
		default:
			byTid[s.Tid] = append(byTid[s.Tid], s)
		}
	}
	for tid, root := range roots {
		children := map[string]int64{}
		for _, c := range byTid[tid] {
			children[c.Name] += c.Dur
			if strings.HasPrefix(c.Name, "sched.") {
				t.kernels += argInt(c.Args, "kernels")
			}
			if c.Name == "bufplan" {
				t.plannedLoops += argInt(c.Args, "planned_loops")
			}
		}
		if root.Name == "job" {
			t.svcJobs++
			t.svcRootUS += root.Dur
			for _, p := range jobPhases {
				t.svcUS[p] += children[p]
			}
			continue
		}
		t.compiles++
		t.compileUS += root.Dur
		t.finalOps += argInt(root.Args, "final_ops")
		for _, p := range compilePhases {
			t.phaseUS[p] += children[p]
		}
		if cfg, _ := root.Args["config"].(string); strings.HasSuffix(cfg, "-optimal") {
			t.optimalUS += children["schedule"]
		}
	}
	if p := peakOverlap(jobs); p > t.peakJobs {
		t.peakJobs = p
	}
}

// peakOverlap is the largest number of spans open at one instant.
func peakOverlap(spans []chromeSpan) int {
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s.Ts, 1}, edge{s.Ts + s.Dur, -1})
	}
	// Ends sort before starts at the same instant: back-to-back jobs on
	// one worker do not overlap.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// workerUS is the runner's busy time: every job span.
func (t *spanTotals) workerUS() int64 {
	var sum int64
	for _, us := range t.jobUS {
		sum += us
	}
	return sum
}

// layers converts the totals into per-op per-layer metrics.
func (t *spanTotals) layers(ops int) map[string]float64 {
	per := func(us int64) float64 { return float64(us) / 1000 / float64(ops) }
	ph := t.phaseUS
	var children int64
	for _, p := range compilePhases {
		children += ph[p]
	}
	return map[string]float64{
		"interp.ms":                per(ph["reference-run"] + ph["re-profile"]),
		"core.compile_ms":          per(t.compileUS),
		"core.inline_ms":           per(ph["inline"]),
		"core.opt_ms":              per(ph["opt"]),
		"core.transform_ms":        per(ph["transform"]),
		"core.cloopify_ms":         per(ph["cloopify"]),
		"core.compile_self_ms":     per(t.compileUS - children),
		"core.final_ir_ops":        float64(t.finalOps) / float64(ops),
		"sched.ms":                 per(ph["schedule"] - t.optimalUS),
		"sched.kernels":            float64(t.kernels) / float64(ops),
		"optimal.ms":               per(t.optimalUS),
		"loopbuffer.ms":            per(ph["bufplan"]),
		"loopbuffer.planned_loops": float64(t.plannedLoops) / float64(ops),
		"vliw.ms":                  per(t.jobUS["job.simulate"]),
		"runner.compile_ms":        per(t.jobUS["job.compile"]),
		"runner.simulate_ms":       per(t.jobUS["job.simulate"]),
		"runner.compile_jobs":      float64(t.jobCount["job.compile"]) / float64(ops),
		"runner.simulate_jobs":     float64(t.jobCount["job.simulate"]) / float64(ops),
		"runner.peak_in_flight":    float64(t.peakJobs),
		"service.queue_ms":         per(t.svcUS["queue_wait"]),
		"service.build_ms":         per(t.svcUS["build"]),
		"store.lookup_ms":          per(t.svcUS["store_lookup"]),
		"store.write_ms":           per(t.svcUS["store_write"]),
	}
}

// attribution reports how much of the runner's traced busy time the
// named layers' spans cover: compile roots (interp, core passes, sched,
// loopbuffer), batched-simulate jobs (vliw) and reduce/analyze jobs
// (experiments). The remainder is compile-job time outside
// core.Compile: building the benchmark IR and the memo-cache lookups.
func (t *spanTotals) attribution() (workerMS, remainderMS, remainderPct float64) {
	worker := t.workerUS()
	named := t.compileUS + t.jobUS["job.simulate"] + t.jobUS["job.reduce"] + t.jobUS["job.analyze"]
	rem := worker - named
	if worker <= 0 {
		return 0, 0, 0
	}
	return float64(worker) / 1000, float64(rem) / 1000, 100 * float64(rem) / float64(worker)
}

// memDelta captures the Go runtime's allocation and GC counters.
type memDelta struct{ start runtime.MemStats }

func startMem() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.start)
	return d
}

// layers reports allocation and GC per op since startMem. Call it as
// soon as the measured work ends, before the trace is read back.
func (d *memDelta) layers(ops int) map[string]float64 {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	n := float64(ops)
	return map[string]float64{
		"runtime.alloc_mb_per_op": float64(end.TotalAlloc-d.start.TotalAlloc) / (1 << 20) / n,
		"runtime.gc_pause_ms":     float64(end.PauseTotalNs-d.start.PauseTotalNs) / 1e6 / n,
		"runtime.gc_cycles":       float64(end.NumGC-d.start.NumGC) / n,
	}
}
