package sched_test

import (
	"fmt"
	"sync"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
	"lpbuf/internal/sched/optimal"
	"lpbuf/internal/verify/gen"
	"lpbuf/internal/verify/oracle"
)

// recMII is the exact recurrence bound: the smallest II at which the
// dependence system alone is feasible, so RecMII-1 is infeasible by
// construction.
func recMII(d *sched.DAG) int {
	ii := 1
	for !sched.DepFeasible(d, ii) {
		ii++
	}
	return ii
}

// cloopDAG is the body DAG of one br.cloop self-loop block, as
// sched.Schedule hands it to a ModuloScheduler backend.
type cloopDAG struct {
	name string
	d    *sched.DAG
}

// cloopDAGs returns the body DAG of every br.cloop self-loop block of
// prog (loop-back branch excluded, cross-iteration edges on).
func cloopDAGs(prog *ir.Program, m *machine.Desc, label string) []cloopDAG {
	var out []cloopDAG
	for _, name := range prog.Order {
		f := prog.Funcs[name]
		alias := sched.AnalyzeAlias(prog, f)
		for _, b := range f.Blocks {
			last := b.LastOp()
			if last == nil || last.Opcode != ir.OpBrCLoop || last.Target != b.ID || len(b.Ops) < 2 {
				continue
			}
			out = append(out, cloopDAG{
				name: fmt.Sprintf("%s/%s/B%d", label, name, b.ID),
				d:    sched.BuildDAG(b.Ops[:len(b.Ops)-1], m, alias, true),
			})
		}
	}
	return out
}

// transformed is one compile's pre-scheduling program, labelled.
type transformed struct {
	label string
	prog  *ir.Program
	bench bool // one of the 22 Table 1 compiles, not the corpus
}

// transformedPrograms compiles, once per test binary, the 22 Table 1
// compiles and the oracle corpus (200 seeds) at its modulo-scheduling
// levels, O1 and O3, and returns their transformed programs.
var transformedPrograms = sync.OnceValues(func() ([]transformed, error) {
	var out []transformed
	for _, bm := range suite.All() {
		prog := bm.Build()
		ref := sync.OnceValues(func() (*core.Reference, error) {
			return core.RunReference(prog)
		})
		for _, cfg := range []core.Config{core.Traditional(256), core.Aggressive(256)} {
			c, err := core.CompileWithReference(prog, cfg, ref)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", bm.Name, cfg.Name, err)
			}
			out = append(out, transformed{bm.Name + "/" + cfg.Name, c.TransformedIR, true})
		}
	}
	for _, cfg := range oracle.Levels() {
		if !cfg.Modulo {
			continue
		}
		for seed := int64(0); seed < 200; seed++ {
			c, err := core.Compile(gen.Program(seed), cfg)
			if err != nil {
				return nil, fmt.Errorf("seed %d %s: %w", seed, cfg.Name, err)
			}
			out = append(out, transformed{fmt.Sprintf("seed%d/%s", seed, cfg.Name), c.TransformedIR, false})
		}
	}
	return out, nil
})

// TestSkippedIIsCannotSchedule pins why the II search may start at the
// exact recurrence bound: on every counted loop of the 22 transformed
// benchmark programs and of the oracle corpus, the dependence system
// is infeasible below RecMII and feasible from RecMII up to the
// heuristic's II, tryII fails at every II in [ResMII, RecMII), the
// heuristic never settles below RecMII, and MinII's bisection lands
// on max(ResMII, RecMII). Feasibility is monotone in II because every
// dependence cycle spans distance >= 1.
func TestSkippedIIsCannotSchedule(t *testing.T) {
	m := machine.Default()
	progs, err := transformedPrograms()
	if err != nil {
		t.Fatal(err)
	}
	var loops []cloopDAG
	benchLoops := 0
	for _, tp := range progs {
		ls := cloopDAGs(tp.prog, m, tp.label)
		loops = append(loops, ls...)
		if tp.bench {
			benchLoops += len(ls)
		}
	}
	if benchLoops == 0 || len(loops) == benchLoops {
		t.Fatalf("collected %d benchmark and %d corpus loops; both sets must be non-empty",
			benchLoops, len(loops)-benchLoops)
	}

	skipped := 0
	for _, l := range loops {
		d := l.d
		rec := recMII(d)
		if rec > 1 && sched.DepFeasible(d, rec-1) {
			t.Errorf("%s: dependence system feasible at II %d, below RecMII %d", l.name, rec-1, rec)
		}
		if got, want := sched.MinII(d, m), max(sched.ResMII(d, m), rec); got != want {
			t.Errorf("%s: MinII = %d, want max(ResMII, RecMII) = %d", l.name, got, want)
		}
		ks := sched.ModuloSchedule(d, m, 0)
		top := rec
		if ks != nil {
			if ks.II < rec {
				t.Errorf("%s: heuristic II %d below RecMII %d", l.name, ks.II, rec)
			}
			top = ks.II
		}
		for ii := rec; ii <= top; ii++ {
			if !sched.DepFeasible(d, ii) {
				t.Errorf("%s: dependence system infeasible at II %d, above RecMII %d", l.name, ii, rec)
			}
		}
		for ii := sched.ResMII(d, m); ii < rec; ii++ {
			if sched.TryII(d, m, ii) != nil {
				t.Errorf("%s: tryII scheduled II %d, below RecMII %d", l.name, ii, rec)
			}
			skipped++
		}
	}
	t.Logf("%d loops (%d from the benchmarks), %d IIs below RecMII", len(loops), benchLoops, skipped)
}

// TestBodyDAGIsRestrictedBlockDAG pins the one DAG a pipelined loop
// builds: on every pipelining candidate of the 22 Table 1 compiles and
// of the O1/O3 corpus, the block's DAG restricted to the body (the
// graph the backend schedules) equals the body's own DAG edge for
// edge, heights included.
func TestBodyDAGIsRestrictedBlockDAG(t *testing.T) {
	m := machine.Default()
	progs, err := transformedPrograms()
	if err != nil {
		t.Fatal(err)
	}
	candidates, benchCandidates := 0, 0
	for _, tp := range progs {
		for _, name := range tp.prog.Order {
			f := tp.prog.Funcs[name]
			alias := sched.AnalyzeAlias(tp.prog, f)
			for _, b := range f.Blocks {
				if sched.LoopCounterInit(f, b) == nil {
					continue
				}
				candidates++
				if tp.bench {
					benchCandidates++
				}
				got := sched.WithoutLast(sched.BuildDAG(b.Ops, m, alias, true))
				want := sched.BuildDAG(b.Ops[:len(b.Ops)-1], m, alias, true)
				if diff := dagDiff(got, want); diff != "" {
					t.Errorf("%s/%s/B%d: restricted block DAG differs from the body DAG: %s",
						tp.label, name, b.ID, diff)
				}
			}
		}
	}
	if benchCandidates == 0 || candidates == benchCandidates {
		t.Fatalf("checked %d benchmark and %d corpus candidates; both sets must be non-empty",
			benchCandidates, candidates-benchCandidates)
	}
	t.Logf("%d candidate loops (%d from the benchmarks)", candidates, benchCandidates)
}

// dagDiff describes the first difference between two DAGs ("" when
// they have the same ops, edges and heights).
func dagDiff(got, want *sched.DAG) string {
	if len(got.Ops) != len(want.Ops) {
		return fmt.Sprintf("%d ops, want %d", len(got.Ops), len(want.Ops))
	}
	edges := func(kind string, i int, g, w []sched.Edge) string {
		if len(g) != len(w) {
			return fmt.Sprintf("op %d: %d %s, want %d", i, len(g), kind, len(w))
		}
		for k := range g {
			if g[k] != w[k] {
				return fmt.Sprintf("op %d: %s %d is %+v, want %+v", i, kind, k, g[k], w[k])
			}
		}
		return ""
	}
	for i := range want.Ops {
		if got.Ops[i] != want.Ops[i] {
			return fmt.Sprintf("op %d differs", i)
		}
		if d := edges("succs", i, got.Succs[i], want.Succs[i]); d != "" {
			return d
		}
		if d := edges("preds", i, got.Preds[i], want.Preds[i]); d != "" {
			return d
		}
		if got.Height[i] != want.Height[i] {
			return fmt.Sprintf("op %d: height %d, want %d", i, got.Height[i], want.Height[i])
		}
	}
	return ""
}

// pointerChaseDAG is a 3-load pointer chase, p1 = [p3]; p2 = [p1];
// p3 = [p2]: one recurrence of three load latencies (3+3+3) over
// distance 1, so RecMII is 9, while its 1- and 2-op cycles (output and
// anti dependences) bound II only by 1.
func pointerChaseDAG(t *testing.T) *sched.DAG {
	t.Helper()
	pb := irbuild.NewProgram(16 << 10)
	cell := pb.GlobalW("cell", 1, nil)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	cnt := f.Reg()
	p1, p2 := f.Reg(), f.Reg()
	p3 := f.Const(cell)
	f.MovI(cnt, 16)
	f.Block("loop")
	f.LdW(p1, p3, 0)
	f.LdW(p2, p1, 0)
	f.LdW(p3, p2, 0)
	f.CLoop(cnt, "loop")
	f.Block("done")
	f.Ret(p3)
	pb.SetEntry("main")
	loops := cloopDAGs(pb.MustBuild(), machine.Default(), "chase")
	if len(loops) != 1 {
		t.Fatalf("built %d counted loops, want 1", len(loops))
	}
	return loops[0].d
}

// TestThreeOpRecurrenceSchedulesAtNine pins the heuristic's schedule
// of a recurrence no 1- or 2-op cycle reveals: MinII 9, and at II 9 the
// three loads back to back at their latency.
func TestThreeOpRecurrenceSchedulesAtNine(t *testing.T) {
	d := pointerChaseDAG(t)
	m := machine.Default()
	if rec := recMII(d); rec != 9 {
		t.Fatalf("RecMII = %d, want 9", rec)
	}
	if got := sched.MinII(d, m); got != 9 {
		t.Errorf("MinII = %d, want RecMII 9", got)
	}
	if ks := sched.ModuloSchedule(d, m, 8); ks != nil {
		t.Errorf("maxII 8 below RecMII scheduled at II %d", ks.II)
	}
	const want = "II 9 stages 1 sigma [0 3 6] slot [2 2 2] branch 5"
	for _, maxII := range []int{0, 9} {
		ks := sched.ModuloSchedule(d, m, maxII)
		if ks == nil {
			t.Fatalf("maxII %d: no schedule", maxII)
		}
		got := fmt.Sprintf("II %d stages %d sigma %v slot %v branch %d",
			ks.II, ks.Stages, ks.Sigma, ks.Slot, ks.BranchSlot)
		if got != want {
			t.Errorf("maxII %d: schedule = %s, want %s", maxII, got, want)
		}
	}
	// The exact backend takes the heuristic's II 9 as proven without
	// searching: no II below MinII is left to rule out.
	ks := optimal.New(optimal.Options{}).ScheduleLoop(d, m)
	if ks == nil || ks.II != 9 || !ks.Proven || ks.Nodes != 0 {
		t.Errorf("exact backend = %+v, want II 9 proven with 0 nodes", ks)
	}
}
