package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/ir"
	"lpbuf/internal/obs"
	"lpbuf/internal/verify"
)

// traceSpan is one span of a Chrome trace-event export.
type traceSpan struct {
	Name string         `json:"name"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceSpans reads back every span o's trace recorded.
func traceSpans(t *testing.T, o *obs.Obs) []traceSpan {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, o.Trace, nil); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []traceSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	return file.TraceEvents
}

// compileTracks maps each track that holds a compile span to that
// span, whose args carry its config and, when it reused a front,
// front=shared.
func compileTracks(spans []traceSpan) map[int64]traceSpan {
	out := map[int64]traceSpan{}
	for _, sp := range spans {
		if sp.Name == "compile" {
			out[sp.Tid] = sp
		}
	}
	return out
}

// TestVerifyingShootoutSharesFronts pins the front memo on the
// shoot-out: with verify on, each benchmark's aggressive and
// aggressive-optimal compiles share one front, so a round interprets
// the transformed program 11 times, not 22, every transformed-check
// span sits in the compile that built its front, the other compile is
// marked front=shared, and both compiles hold one TransformedIR.
func TestVerifyingShootoutSharesFronts(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the suite under both backends")
	}
	o := obs.New(obs.Config{Spans: true})
	s := NewWithOptions(Options{Verify: true, Obs: o})
	if _, err := s.Shootout(); err != nil {
		t.Fatal(err)
	}
	spans := traceSpans(t, o)
	compiles := compileTracks(spans)
	n := len(Benchmarks())
	shared := 0
	for _, c := range compiles {
		if c.Args["front"] == "shared" {
			shared++
		}
	}
	if len(compiles) != 2*n || shared != n {
		t.Errorf("%d compile spans, %d marked front=shared; want %d and %d", len(compiles), shared, 2*n, n)
	}
	checks := 0
	for _, sp := range spans {
		if sp.Name != "transformed-check" {
			continue
		}
		checks++
		if c, ok := compiles[sp.Tid]; !ok || c.Args["front"] == "shared" {
			t.Errorf("transformed-check on track %d: want the track of the compile that built the front", sp.Tid)
		}
	}
	if checks != n {
		t.Errorf("%d transformed-check spans, want %d (one per benchmark)", checks, n)
	}
	for _, name := range Benchmarks() {
		h, _, err := s.compiled(name, "aggressive")
		if err != nil {
			t.Fatal(err)
		}
		x, _, err := s.compiled(name, "aggressive-optimal")
		if err != nil {
			t.Fatal(err)
		}
		if h.TransformedIR != x.TransformedIR || h.Ref != x.Ref {
			t.Errorf("%s: the two backends' compiles do not share one front", name)
		}
	}
	if got := len(s.cc.fronts.values()); got != n {
		t.Errorf("cache holds %d fronts, want %d", got, n)
	}
}

// TestReproduceRoundSharesNoFront pins the other side of the front
// memo: a reproduce round (Figure 7 under both configs, Figures 8a and
// 8b and the headline, as perfbench's reproduce workload runs it)
// compiles 22 (benchmark, config) pairs, no two of which share a base
// config, so it builds 22 fronts and marks no compile front=shared.
func TestReproduceRoundSharesNoFront(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the suite under both configs")
	}
	o := obs.New(obs.Config{Spans: true})
	s := NewWithOptions(Options{Obs: o})
	for _, cfg := range []string{"traditional", "aggressive"} {
		if _, err := s.Figure7(cfg, BufferSizes); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Figure8a(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure8b(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ComputeHeadline(); err != nil {
		t.Fatal(err)
	}
	compiles := compileTracks(traceSpans(t, o))
	shared := 0
	for _, c := range compiles {
		if c.Args["front"] == "shared" {
			shared++
		}
	}
	n := 2 * len(Benchmarks())
	if fronts := len(s.cc.fronts.values()); len(compiles) != n || fronts != n || shared != 0 {
		t.Errorf("%d compiles, %d fronts, %d marked front=shared; want %d, %d and 0",
			len(compiles), fronts, shared, n, n)
	}
}

// TestSharedFrontConcurrentCompiles compiles and simulates one
// benchmark under both backends at the same time on a fresh verifying
// suite. Both schedule the one front; under -race this shows that
// scheduling and simulation only read it.
func TestSharedFrontConcurrentCompiles(t *testing.T) {
	const name = "adpcmenc"
	s := NewWithOptions(Options{Verify: true})
	cfgs := []string{"aggressive", "aggressive-optimal"}
	progs := make([]*ir.Program, len(cfgs))
	errs := make([]error, len(cfgs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, errs[i] = s.RunAt(name, cfg, 256); errs[i] != nil {
				return
			}
			var c *core.Compiled
			c, _, errs[i] = s.compiled(name, cfg)
			if c != nil {
				progs[i] = c.TransformedIR
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cfgs[i], err)
		}
	}
	if progs[0] == nil || progs[0] != progs[1] {
		t.Errorf("concurrent compiles got programs %p and %p, want one shared front", progs[0], progs[1])
	}
}

// TestUnverifiedSuiteKeepsFrontsApart pins verify in the front key: in
// a suite without verify, aggressive keeps its unverified front, and
// aggressive-optimal, which forces verify, builds and checks its own
// rather than scheduling one no checkpoint has seen. (Built with -tags
// verify every compile verifies, so the two share one front.)
func TestUnverifiedSuiteKeepsFrontsApart(t *testing.T) {
	const name = "adpcmenc"
	o := obs.New(obs.Config{Spans: true})
	s := NewWithOptions(Options{Obs: o})
	h, _, err := s.compiled(name, "aggressive")
	if err != nil {
		t.Fatal(err)
	}
	x, _, err := s.compiled(name, "aggressive-optimal")
	if err != nil {
		t.Fatal(err)
	}
	forced := verify.Forced()
	if shared := h.TransformedIR == x.TransformedIR; shared != forced {
		t.Errorf("compiles share a front: %v, want %v", shared, forced)
	}
	verified := map[bool]int{}
	for _, f := range s.cc.fronts.values() {
		verified[f.Verified]++
	}
	wantVerified := map[bool]int{true: 1, false: 1}
	checks := map[any]int{}
	spans := traceSpans(t, o)
	compiles := compileTracks(spans)
	for _, sp := range spans {
		if sp.Name == "transformed-check" {
			checks[compiles[sp.Tid].Args["config"]]++
		}
	}
	wantChecks := map[any]int{"aggressive-optimal": 1}
	if forced {
		wantVerified = map[bool]int{true: 1}
		wantChecks = map[any]int{"aggressive": 1}
	}
	if !reflect.DeepEqual(verified, wantVerified) {
		t.Errorf("fronts by Verified: %v, want %v", verified, wantVerified)
	}
	if !reflect.DeepEqual(checks, wantChecks) {
		t.Errorf("transformed-check spans by compile: %v, want %v", checks, wantChecks)
	}
}

// TestSchedulingLeavesFrontUnchanged pins the clone in the scheduling
// step: after a shared front has been scheduled under both backends,
// its printed program equals that of a front no compile has scheduled.
// (Pipelining rewrites each kernel's trip-counter move in the program
// it schedules.)
func TestSchedulingLeavesFrontUnchanged(t *testing.T) {
	const name = "adpcmenc"
	s := NewWithOptions(Options{Verify: true})
	for _, cfg := range []string{"aggressive", "aggressive-optimal"} {
		c, _, err := s.compiled(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.Stats.ModuloKernels == 0 {
			t.Fatalf("%s: no pipelined kernel, so nothing to rewrite", cfg)
		}
	}
	fronts := s.cc.fronts.values()
	if len(fronts) != 1 {
		t.Fatalf("cache holds %d fronts, want 1", len(fronts))
	}
	b, _ := suite.ByName(name)
	cfg := core.Aggressive(256)
	cfg.Verify = true
	fresh, err := core.BuildFront(b.Build(), cfg, func() (*core.Reference, error) {
		return core.RunReference(b.Build())
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := printProgram(fronts[0].Prog), printProgram(fresh.Prog); got != want {
		t.Errorf("scheduling changed the front's program:\n%s", firstLineDiff(got, want))
	}
}

// printProgram renders every function of p in program order.
func printProgram(p *ir.Program) string {
	var sb strings.Builder
	for _, name := range p.Order {
		sb.WriteString(p.Funcs[name].String())
	}
	return sb.String()
}

// firstLineDiff names the first line where got and want differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return "scheduled front: " + g[i] + "\nfresh front:     " + w[i]
		}
	}
	return "the listings differ in length"
}
