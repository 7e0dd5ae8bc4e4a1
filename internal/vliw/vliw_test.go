package vliw_test

import (
	"testing"

	"lpbuf/internal/interp"
	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
	"lpbuf/internal/loopbuffer"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
	"lpbuf/internal/vliw"
)

// loopProgram builds a single-block counted loop (buffered as a cloop)
// plus a straight prologue/epilogue.
func loopProgram(trips int64) *ir.Program {
	pb := irbuild.NewProgram(32 << 10)
	n := int(trips)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(2*i - 7)
	}
	inOff := pb.GlobalW("in", n, vals)
	outOff := pb.GlobalW("out", n, nil)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	pin := f.Const(inOff)
	pout := f.Const(outOff)
	cnt := f.Reg()
	acc := f.Reg()
	f.MovI(cnt, trips)
	f.MovI(acc, 0)
	f.Block("loop")
	v := f.Reg()
	f.LdW(v, pin, 0)
	f.MulI(v, v, 3)
	f.Add(acc, acc, v)
	f.StW(pout, 0, v)
	f.AddI(pin, pin, 4)
	f.AddI(pout, pout, 4)
	f.CLoop(cnt, "loop")
	f.Block("done")
	f.Ret(acc)
	pb.SetEntry("main")
	return pb.MustBuild()
}

// compile schedules and plans a program with the given buffer size.
func compile(t testing.TB, prog *ir.Program, bufOps int, modulo bool) (*sched.Code, *vliw.BufferPlan) {
	t.Helper()
	code, err := sched.Schedule(prog, machine.Default(), sched.Options{EnableModulo: modulo})
	if err != nil {
		t.Fatal(err)
	}
	x, err := vliw.Execute(code, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return code, loopbuffer.Plan(code, x.Weights(), bufOps)
}

func TestBufferRecordThenReplay(t *testing.T) {
	prog := loopProgram(100)
	ref, err := interp.Run(prog.Clone(), interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	code, plan := compile(t, prog, 256, false)
	if len(plan.Loops) != 1 {
		t.Fatalf("planned %d loops, want 1", len(plan.Loops))
	}
	res, err := vliw.Run(code, plan, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != ref.Ret {
		t.Fatalf("ret %d != %d", res.Ret, ref.Ret)
	}
	key := plan.Loops[0].Key()
	ls := res.Stats.Loops[key]
	if ls == nil {
		t.Fatal("no loop stats")
	}
	if ls.Entries != 1 || ls.Recordings != 1 {
		t.Fatalf("entries=%d recordings=%d, want 1/1", ls.Entries, ls.Recordings)
	}
	if ls.Iterations != 100 {
		t.Fatalf("iterations = %d", ls.Iterations)
	}
	// First iteration records from memory; the rest replay.
	if ls.BufferedIterations != 99 {
		t.Fatalf("buffered iterations = %d, want 99", ls.BufferedIterations)
	}
	if res.Stats.RecFetches != 1 {
		t.Fatalf("rec fetches = %d", res.Stats.RecFetches)
	}
}

func TestBufferResidencyAcrossEntries(t *testing.T) {
	// Two sequential activations of the same loop: the hardware table
	// notices the intact image, so the second entry replays at once.
	pb := irbuild.NewProgram(32 << 10)
	outOff := pb.GlobalW("out", 64, nil)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	pout := f.Const(outOff)
	outer := f.Reg()
	acc := f.Reg()
	f.MovI(outer, 2)
	f.MovI(acc, 0)
	f.Block("outerloop")
	cnt := f.Reg()
	f.MovI(cnt, 20)
	f.Block("loop")
	f.AddI(acc, acc, 1)
	f.StW(pout, 0, acc)
	f.CLoop(cnt, "loop")
	f.Block("after")
	f.CLoop(outer, "outerloop")
	f.Block("done")
	f.Ret(acc)
	pb.SetEntry("main")
	prog := pb.MustBuild()
	code, plan := compile(t, prog, 256, false)
	res, err := vliw.Run(code, plan, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var inner *vliw.LoopStats
	for key, ls := range res.Stats.Loops {
		if ls.Entries == 2 {
			inner = ls
		}
		_ = key
	}
	if inner == nil {
		t.Fatalf("no loop with 2 entries: %+v", res.Stats.Loops)
	}
	if inner.Recordings != 1 {
		t.Fatalf("recordings = %d, want 1 (second entry hits the residency table)", inner.Recordings)
	}
	// 40 iterations total; only the very first fetched from memory.
	if inner.BufferedIterations != 39 {
		t.Fatalf("buffered iterations = %d, want 39", inner.BufferedIterations)
	}
}

func TestTinyBufferExcludesLoop(t *testing.T) {
	prog := loopProgram(100)
	code, plan := compile(t, prog, 4, false) // loop body > 4 ops
	if len(plan.Loops) != 0 {
		t.Fatalf("planned %d loops into a 4-op buffer", len(plan.Loops))
	}
	res, err := vliw.Run(code, plan, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OpsFromBuffer != 0 {
		t.Fatal("ops issued from a buffer that holds nothing")
	}
	// Unbuffered loop-back branches pay the redirect penalty.
	if res.Stats.BranchPenaltyCycles < 99*int64(machine.Default().BranchPenalty) {
		t.Fatalf("penalty cycles = %d, want >= %d",
			res.Stats.BranchPenaltyCycles, 99*machine.Default().BranchPenalty)
	}
}

func TestBufferedLoopBackIsFree(t *testing.T) {
	prog := loopProgram(100)
	code, plan := compile(t, prog, 256, false)
	res, err := vliw.Run(code, plan, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The counted loop predicts both loop-backs and the exit: the only
	// penalties permitted are unrelated to the loop (there are none
	// here).
	if res.Stats.BranchPenaltyCycles != 0 {
		t.Fatalf("penalty cycles = %d, want 0 for a fully buffered cloop",
			res.Stats.BranchPenaltyCycles)
	}
}

func TestCyclesImproveWithBuffer(t *testing.T) {
	prog1 := loopProgram(200)
	code1, plan1 := compile(t, prog1, 4, false)
	r1, err := vliw.Run(code1, plan1, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prog2 := loopProgram(200)
	code2, plan2 := compile(t, prog2, 256, false)
	r2, err := vliw.Run(code2, plan2, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.Cycles >= r1.Stats.Cycles {
		t.Fatalf("buffered run (%d cycles) not faster than unbuffered (%d)",
			r2.Stats.Cycles, r1.Stats.Cycles)
	}
}

func TestNullifiedOpsCounted(t *testing.T) {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("entry")
	x := f.Const(1)
	y := f.Reg()
	f.MovI(y, 7)
	pt, pf := f.F.NewPred(), f.F.NewPred()
	f.CmpPI(pt, ir.PTUT, pf, ir.PTUF, ir.CmpEQ, x, 1)
	f.MovI(y, 10).Guard = pt // executes
	f.MovI(y, 20).Guard = pf // nullified
	f.Ret(y)
	pb.SetEntry("main")
	prog := pb.MustBuild()
	code, plan := compile(t, prog, 256, false)
	res, err := vliw.Run(code, plan, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 10 {
		t.Fatalf("ret = %d", res.Ret)
	}
	if res.Stats.OpsNullified != 1 {
		t.Fatalf("nullified = %d, want 1", res.Stats.OpsNullified)
	}
}

func TestWloopExitMispredicts(t *testing.T) {
	// A while-style loop (conditional back edge, not cloop) pays one
	// mispredict penalty on exit when buffered.
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	i := f.Reg()
	f.MovI(i, 0)
	f.Block("loop")
	f.AddI(i, i, 3)
	f.BrI(ir.CmpLT, i, 1000, "loop")
	f.Block("done")
	f.Ret(i)
	pb.SetEntry("main")
	prog := pb.MustBuild()
	// Mark as wloop without cloopifying: compile with modulo disabled;
	// the loop stays a conditional self-loop... cloopify is not run here
	// (sched only), so the back edge is a plain Br. Mark it.
	fn := prog.Funcs["main"]
	for _, b := range fn.Blocks {
		if last := b.LastOp(); last != nil && last.IsBranch() && last.Target == b.ID {
			last.LoopBack = true
		}
	}
	code, plan := compile(t, prog, 256, false)
	if len(plan.Loops) != 1 || plan.Loops[0].Counted {
		t.Fatalf("expected one wloop plan, got %+v", plan.Loops)
	}
	res, err := vliw.Run(code, plan, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(machine.Default().BranchPenalty)
	if res.Stats.BranchPenaltyCycles != want {
		t.Fatalf("penalty = %d, want %d (single exit mispredict)",
			res.Stats.BranchPenaltyCycles, want)
	}
}

func TestOverlapEviction(t *testing.T) {
	// Two loops forced to overlap in a tiny buffer evict each other on
	// alternate activations.
	pb := irbuild.NewProgram(32 << 10)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	outer := f.Reg()
	acc := f.Reg()
	f.MovI(outer, 4)
	f.MovI(acc, 0)
	f.Block("outerloop")
	c1 := f.Reg()
	f.MovI(c1, 10)
	f.Block("l1")
	f.AddI(acc, acc, 1)
	f.AddI(acc, acc, 0)
	f.AddI(acc, acc, 0)
	f.CLoop(c1, "l1")
	f.Block("mid")
	c2 := f.Reg()
	f.MovI(c2, 10)
	f.Block("l2")
	f.AddI(acc, acc, 2)
	f.SubI(acc, acc, 0)
	f.AddI(acc, acc, 0)
	f.CLoop(c2, "l2")
	f.Block("after")
	f.CLoop(outer, "outerloop")
	f.Block("done")
	f.Ret(acc)
	pb.SetEntry("main")
	prog := pb.MustBuild()
	// Buffer sized so both loops fit individually but not together.
	code, plan := compile(t, prog, 6, false)
	if len(plan.Loops) != 2 {
		t.Skipf("planner placed %d loops; eviction test needs 2", len(plan.Loops))
	}
	res, err := vliw.Run(code, plan, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range res.Stats.Loops {
		if ls.Entries == 4 && ls.Recordings != 4 {
			t.Fatalf("overlapping loops must re-record per entry: %+v", ls)
		}
	}
}
