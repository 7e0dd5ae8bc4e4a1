package optimal

import (
	"sync"
	"testing"
	"time"

	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
	"lpbuf/internal/machine"
	"lpbuf/internal/obs"
	"lpbuf/internal/sched"
)

// loopBuilder describes a counted-loop test program: setup runs in the
// preheader (defining loop-carried registers), body emits the loop
// body ops that the DAG is built over.
type loopBuilder struct {
	setup func(f *irbuild.Func, inOff, outOff int64) []ir.Reg
	body  func(f *irbuild.Func, regs []ir.Reg)
}

// loopDAG builds the counted loop and returns the body DAG (loop-back
// branch excluded, cross-iteration edges on) — the same graph
// sched.Schedule hands a ModuloScheduler backend.
func loopDAG(t *testing.T, lb loopBuilder) *sched.DAG {
	t.Helper()
	pb := irbuild.NewProgram(16 << 10)
	inOff := pb.GlobalW("in", 256, make([]int32, 256))
	outOff := pb.GlobalW("out", 256, nil)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	cnt := f.Reg()
	f.MovI(cnt, 32)
	regs := lb.setup(f, inOff, outOff)
	f.Block("loop")
	lb.body(f, regs)
	f.CLoop(cnt, "loop")
	f.Block("done")
	f.Ret(cnt)
	pb.SetEntry("main")
	p := pb.MustBuild()
	fn := p.Funcs["main"]
	var loop *ir.Block
	for _, b := range fn.Blocks {
		if b.Name == "loop" {
			loop = b
		}
	}
	ops := loop.Ops[:len(loop.Ops)-1]
	return sched.BuildDAG(ops, machine.Default(), sched.AnalyzeAlias(p, fn), true)
}

// recurrenceLoop is bound by the acc = acc*3 + 7 cycle (mul latency 2
// + add latency 1, distance 1 => minimal II 3); an independent
// load/mul/store stream keeps the body wider than the cycle.
var recurrenceLoop = loopBuilder{
	setup: func(f *irbuild.Func, inOff, outOff int64) []ir.Reg {
		acc := f.Reg()
		f.MovI(acc, 1)
		pin := f.Const(inOff)
		pout := f.Const(outOff)
		return []ir.Reg{acc, pin, pout}
	},
	body: func(f *irbuild.Func, regs []ir.Reg) {
		acc, pin, pout := regs[0], regs[1], regs[2]
		x := f.Reg()
		y := f.Reg()
		f.LdW(x, pin, 0)
		f.MulI(y, x, 5)
		f.StW(pout, 0, y)
		f.MulI(acc, acc, 3)
		f.AddI(acc, acc, 7)
		f.AddI(pin, pin, 4)
		f.AddI(pout, pout, 4)
	},
}

// wideLoop is bound by the three memory slots: 12 independent word
// accesses per iteration => minimal II 4, while the heuristic IMS
// settles at 5, so reaching 4 requires actual search.
var wideLoop = resourceLoop(6, "a")

// resourceLoop builds lanes independent load → op → store chains over
// the three memory slots. Lane l's op follows mix[l%len(mix)]: 'a' an
// add (ialu), 'm' a multiply (imul), 'x' an add then a xor (two ialu
// ops in series).
func resourceLoop(lanes int, mix string) loopBuilder {
	return loopBuilder{
		setup: func(f *irbuild.Func, inOff, outOff int64) []ir.Reg {
			pin := f.Const(inOff)
			pout := f.Const(outOff)
			return []ir.Reg{pin, pout}
		},
		body: func(f *irbuild.Func, regs []ir.Reg) {
			pin, pout := regs[0], regs[1]
			for lane := 0; lane < lanes; lane++ {
				v := f.Reg()
				f.LdW(v, pin, int64(4*lane))
				switch mix[lane%len(mix)] {
				case 'a':
					f.AddI(v, v, int64(lane+1))
				case 'm':
					f.MulI(v, v, int64(lane+3))
				case 'x':
					f.AddI(v, v, int64(lane+1))
					f.XorI(v, v, int64(lane+5))
				}
				f.StW(pout, int64(4*lane), v)
			}
			f.AddI(pin, pin, int64(4*lanes))
			f.AddI(pout, pout, int64(4*lanes))
		},
	}
}

// checkKernel asserts the schedule satisfies every DAG constraint and
// the modulo reservation rules.
func checkKernel(t *testing.T, d *sched.DAG, ks *sched.KernelSchedule) {
	t.Helper()
	for i := range d.Ops {
		for _, e := range d.Succs[i] {
			if ks.Sigma[e.To]+ks.II*e.Dist < ks.Sigma[i]+e.Lat {
				t.Errorf("edge %d->%d (lat %d dist %d) violated", i, e.To, e.Lat, e.Dist)
			}
		}
	}
	used := map[[2]int]bool{}
	for i := range d.Ops {
		key := [2]int{ks.Sigma[i] % ks.II, ks.Slot[i]}
		if used[key] {
			t.Fatalf("MRT conflict at %v", key)
		}
		used[key] = true
	}
	if used[[2]int{ks.II - 1, ks.BranchSlot}] {
		t.Fatal("branch slot not reserved")
	}
}

// TestDepFeasible pins the exact recurrence bound: the acc cycle has
// total latency 3 over distance 1, so the dependence system is
// infeasible below II 3 and feasible from 3 up.
func TestDepFeasible(t *testing.T) {
	d := loopDAG(t, recurrenceLoop)
	for ii := 1; ii <= 2; ii++ {
		if sched.DepFeasible(d, ii) {
			t.Errorf("II %d reported dependence-feasible; the acc cycle forbids it", ii)
		}
	}
	for ii := 3; ii <= 5; ii++ {
		if !sched.DepFeasible(d, ii) {
			t.Errorf("II %d reported infeasible; the recurrence bound is 3", ii)
		}
	}
}

// TestProvesMinimalInBudget runs the default budget on the
// resource-bound loop: the exact backend must find II 4 (beating the
// heuristic) with an in-budget minimality proof, and report it all
// through Stats and the obs counters.
func TestProvesMinimalInBudget(t *testing.T) {
	d := loopDAG(t, wideLoop)
	m := machine.Default()
	heur := sched.ModuloSchedule(d, m, 0)
	if heur == nil {
		t.Fatal("heuristic failed on the wide loop")
	}
	o := obs.New(obs.Config{Metrics: true})
	s := New(Options{Obs: o})
	ks := s.ScheduleLoop(d, m, 0)
	if ks == nil {
		t.Fatal("exact backend returned no schedule")
	}
	if ks.II != 4 {
		t.Errorf("II = %d, want the memory-slot bound 4", ks.II)
	}
	if !ks.Proven {
		t.Error("II not proven minimal in budget")
	}
	if ks.II > heur.II {
		t.Errorf("exact II %d exceeds heuristic %d", ks.II, heur.II)
	}
	if ks.Nodes <= 0 {
		t.Error("search reported zero nodes despite improving on the heuristic")
	}
	checkKernel(t, d, ks)
	st := s.Stats()
	if st.Loops != 1 || st.Proven != 1 || st.Fallbacks != 0 || st.Improved != 1 {
		t.Errorf("stats = %+v, want 1 loop proven and improved, no fallback", st)
	}
	if st.Nodes != ks.Nodes {
		t.Errorf("aggregate nodes %d != schedule nodes %d", st.Nodes, ks.Nodes)
	}
	for name, want := range map[string]int64{
		"sched.optimal.loops":    1,
		"sched.optimal.proven":   1,
		"sched.optimal.improved": 1,
		"sched.optimal.fallback": 0,
		"sched.optimal.nodes":    ks.Nodes,
	} {
		if got := o.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestBudgetExhaustedFallsBack starves the search: with a single-node
// budget the II-4 attempt dies immediately, so the backend must return
// the heuristic schedule unproven and count the fallback.
func TestBudgetExhaustedFallsBack(t *testing.T) {
	d := loopDAG(t, wideLoop)
	m := machine.Default()
	heur := sched.ModuloSchedule(d, m, 0)
	o := obs.New(obs.Config{Metrics: true})
	s := New(Options{NodeBudget: 1, Obs: o})
	ks := s.ScheduleLoop(d, m, 0)
	if ks == nil {
		t.Fatal("fallback returned no schedule")
	}
	if ks.Proven {
		t.Error("budget-starved schedule claims a minimality proof")
	}
	if ks.II != heur.II {
		t.Errorf("fallback II %d != heuristic II %d", ks.II, heur.II)
	}
	checkKernel(t, d, ks)
	st := s.Stats()
	if st.Loops != 1 || st.Proven != 0 || st.Fallbacks != 1 || st.Improved != 0 {
		t.Errorf("stats = %+v, want 1 unproven fallback loop", st)
	}
	if got := o.Counter("sched.optimal.fallback").Value(); got != 1 {
		t.Errorf("sched.optimal.fallback = %d, want 1", got)
	}
	if got := o.Counter("sched.optimal.proven").Value(); got != 0 {
		t.Errorf("sched.optimal.proven = %d, want 0", got)
	}
}

// TestRecurrenceLiftAvoidsSearch checks the exact recurrence bound: on
// a loop whose II is pinned by its recurrence alone, sched.MinII
// starts the scan at the true bound, and proving minimality costs zero
// (or near-zero) search nodes.
func TestRecurrenceLiftAvoidsSearch(t *testing.T) {
	d := loopDAG(t, recurrenceLoop)
	m := machine.Default()
	s := New(Options{})
	ks := s.ScheduleLoop(d, m, 0)
	if ks == nil {
		t.Fatal("no schedule")
	}
	if ks.II != 3 {
		t.Errorf("II = %d, want the recurrence bound 3", ks.II)
	}
	if !ks.Proven {
		t.Error("recurrence-bound II not proven")
	}
	checkKernel(t, d, ks)
}

// TestTimeoutFallsBack exercises the wall-clock deadline: a deadline
// already in the past kills the search at its first check, forcing the
// heuristic fallback. (The deadline is only consulted every 1024 nodes,
// so the node budget is raised to guarantee the check fires.)
func TestTimeoutFallsBack(t *testing.T) {
	d := loopDAG(t, wideLoop)
	m := machine.Default()
	s := New(Options{NodeBudget: 1 << 40, Timeout: -time.Hour})
	ks := s.ScheduleLoop(d, m, 0)
	if ks == nil {
		t.Fatal("fallback returned no schedule")
	}
	st := s.Stats()
	if st.Nodes >= 1<<20 {
		t.Fatalf("deadline never fired (%d nodes expanded)", st.Nodes)
	}
	// Either the solver found II 4 within the first 1024 nodes (before
	// any deadline check) or it fell back; both must yield a legal
	// schedule, and a fallback must not claim a proof.
	if ks.Proven && ks.II != 4 {
		t.Errorf("proven schedule at II %d, want 4", ks.II)
	}
	checkKernel(t, d, ks)
}

// TestConcurrentScheduleLoop shares one Scheduler across goroutines
// (as core.Compile's parallel function scheduling does) and checks the
// aggregate stats stay consistent. Run under -race this also proves
// the per-loop search state is not shared.
func TestConcurrentScheduleLoop(t *testing.T) {
	m := machine.Default()
	dags := []*sched.DAG{
		loopDAG(t, recurrenceLoop),
		loopDAG(t, wideLoop),
	}
	s := New(Options{})
	const workers = 8
	var wg sync.WaitGroup
	results := make([]*sched.KernelSchedule, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = s.ScheduleLoop(dags[w%len(dags)], m, 0)
		}(w)
	}
	wg.Wait()
	for w, ks := range results {
		if ks == nil {
			t.Fatalf("worker %d: no schedule", w)
		}
		if !ks.Proven {
			t.Errorf("worker %d: unproven", w)
		}
		checkKernel(t, dags[w%len(dags)], ks)
	}
	st := s.Stats()
	if st.Loops != workers || st.Proven != workers || st.Fallbacks != 0 {
		t.Errorf("stats = %+v, want %d proven loops", st, workers)
	}
}
