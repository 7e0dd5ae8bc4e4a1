package optimal_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
	"lpbuf/internal/sched/optimal"
)

var update = flag.Bool("update", false, "rewrite golden files")

// capturedLoop is one loop DAG a compile handed its modulo scheduler.
type capturedLoop struct {
	name string
	dag  *sched.DAG
	mach *machine.Desc
	// nodes is what the default-budget search expanded when captured.
	nodes int64
}

// recorder is a sched.ModuloScheduler that passes every loop to the
// exact backend and keeps the DAG it was asked to schedule.
type recorder struct {
	bench string
	exact *optimal.Scheduler
	loops []capturedLoop
}

func (r *recorder) ScheduleLoop(d *sched.DAG, m *machine.Desc) *sched.KernelSchedule {
	before := r.exact.Stats().Nodes
	ks := r.exact.ScheduleLoop(d, m)
	r.loops = append(r.loops, capturedLoop{
		name: fmt.Sprintf("%s/loop%d", r.bench, len(r.loops)), dag: d, mach: m,
		nodes: r.exact.Stats().Nodes - before})
	return ks
}

// captureKernels compiles a benchmark in the aggressive configuration
// and re-schedules its transformed IR through a recorder, returning
// the loop DAGs the aggressive-optimal compile's exact backend sees.
func captureKernels(tb testing.TB, bench string) []capturedLoop {
	tb.Helper()
	b, ok := suite.ByName(bench)
	if !ok {
		tb.Fatalf("unknown benchmark %q", bench)
	}
	c, err := core.Compile(b.Build(), core.Aggressive(256))
	if err != nil {
		tb.Fatal(err)
	}
	rec := &recorder{bench: bench, exact: optimal.New(optimal.Options{})}
	if _, err := sched.Schedule(c.TransformedIR.Clone(), c.Config.Machine,
		sched.Options{EnableModulo: true, Backend: rec}); err != nil {
		tb.Fatal(err)
	}
	return rec.loops
}

// searchBudgets are the node budgets each loop is replayed at: well
// below, near and at the default.
var searchBudgets = []int64{100, 1000, optimal.DefaultNodeBudget}

// searchLine runs one fresh exact search and renders its outcome: II,
// proof, nodes expanded and the schedule itself.
func searchLine(l capturedLoop, budget int64) (string, int64) {
	s := optimal.New(optimal.Options{NodeBudget: budget})
	ks := s.ScheduleLoop(l.dag, l.mach)
	nodes := s.Stats().Nodes
	head := fmt.Sprintf("%s ops=%d budget=%d:", l.name, len(l.dag.Ops), budget)
	if ks == nil {
		return fmt.Sprintf("%s nil nodes=%d", head, nodes), nodes
	}
	join := func(xs []int) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = fmt.Sprint(x)
		}
		return strings.Join(parts, ",")
	}
	return fmt.Sprintf("%s ii=%d stages=%d proven=%v nodes=%d sigma=%s slot=%s",
		head, ks.II, ks.Stages, ks.Proven, nodes, join(ks.Sigma), join(ks.Slot)), nodes
}

// TestSearchTreeGolden pins the exact search itself, not only its
// results: for every loop the 11 benchmarks hand the exact backend,
// plus synthetic resource-bound loops whose search really branches,
// it records the II, proof, node count and schedule at several node
// budgets. Any change to propagation, variable or value order, or the
// budget accounting moves a node count; a change that only makes
// nodes cheaper leaves the file byte-identical. (The sim-stat
// baselines pin kernels, proofs, fallbacks and II sums, and the
// verifier corpus settles every kernel without search, so neither can
// see the tree.) Regenerate with:
//
//	go test ./internal/sched/optimal -run TestSearchTreeGolden -update
func TestSearchTreeGolden(t *testing.T) {
	var loops []capturedLoop
	for _, b := range suite.All() {
		loops = append(loops, captureKernels(t, b.Name)...)
	}
	synthetic := []struct {
		mach  *machine.Desc
		lanes int
		mix   string
	}{
		{machine.Default(), 3, "a"}, {machine.Default(), 4, "x"}, {machine.Default(), 4, "mx"},
		{machine.Default(), 6, "a"}, {machine.Default(), 7, "x"}, {machine.Default(), 9, "a"},
		{machine.Default(), 9, "am"}, {machine.Default(), 9, "amx"},
		{machine.Four(), 3, "a"}, {machine.Four(), 4, "a"}, {machine.Four(), 4, "m"},
		{machine.Four(), 4, "x"}, {machine.Four(), 4, "mx"}, {machine.Four(), 4, "mma"},
		{machine.Four(), 5, "m"}, {machine.Four(), 6, "am"},
	}
	for _, sy := range synthetic {
		loops = append(loops, capturedLoop{
			name: fmt.Sprintf("synthetic/%s/lanes%d-%s", sy.mach.Name, sy.lanes, sy.mix),
			dag:  optimal.ResourceLoopDAG(t, sy.lanes, sy.mix),
			mach: sy.mach,
		})
	}

	var sb strings.Builder
	var searched int64
	for _, l := range loops {
		for _, budget := range searchBudgets {
			line, nodes := searchLine(l, budget)
			searched += nodes
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	got := sb.String()
	if searched == 0 {
		t.Fatal("no loop expanded a search node; the golden would not pin the search tree")
	}

	golden := filepath.Join("testdata", "searchtree.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("search tree drifted from %s at line %d (re-run with -update if intended)\n got: %s\nwant: %s",
					golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("search tree drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// g724Burner caches the g724enc loop whose search burns the whole
// default node budget (g724dec carries the same kernel).
var g724Burner struct {
	once sync.Once
	loop capturedLoop
}

// BenchmarkExactSearch replays the exact search of the loop that
// dominates the scheduler shoot-out's time and reports its cost per
// search node.
func BenchmarkExactSearch(b *testing.B) {
	g724Burner.once.Do(func() {
		for _, l := range captureKernels(b, "g724enc") {
			if l.nodes > g724Burner.loop.nodes {
				g724Burner.loop = l
			}
		}
	})
	l := g724Burner.loop
	if l.nodes <= optimal.DefaultNodeBudget {
		b.Fatalf("no g724enc loop exhausts the node budget (most nodes: %d)", l.nodes)
	}
	b.ResetTimer()
	var nodes int64
	for i := 0; i < b.N; i++ {
		s := optimal.New(optimal.Options{})
		s.ScheduleLoop(l.dag, l.mach)
		nodes += s.Stats().Nodes
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}
