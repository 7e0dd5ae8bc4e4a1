package vliw

import (
	"testing"

	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
)

// kernelLoopProgram is a counted loop with memory traffic — the shape
// the replay fast path exists for.
func kernelLoopProgram(trips int64) *ir.Program {
	pb := irbuild.NewProgram(16 << 10)
	n := int(trips)
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(3*i - 11)
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
	f.MulI(v, v, 5)
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

// planSections builds a BufferPlan covering every loop section of the
// schedule (mirrors internal/loopbuffer's recognition, which this
// package cannot import without a cycle).
func planSections(code *sched.Code, capacity int) *BufferPlan {
	plan := &BufferPlan{Capacity: capacity}
	off := 0
	for _, name := range code.Prog.Order {
		fc := code.Funcs[name]
		for _, sec := range fc.Sections {
			isLoop := sec.Kind == sched.KindKernel
			counted := isLoop
			if sec.Kind == sched.KindStraight {
				for _, b := range sec.Bundles {
					for _, so := range b.Ops {
						if so.Op.LoopBack && so.Op.IsBranch() && so.TargetBundle == sec.Start {
							isLoop = true
							counted = so.Op.Opcode == ir.OpBrCLoop
						}
					}
				}
			}
			if !isLoop {
				continue
			}
			ops := 0
			for _, b := range sec.Bundles {
				ops += len(b.Ops)
			}
			plan.Loops = append(plan.Loops, &PlannedLoop{
				Func: name, StartBundle: sec.Start,
				EndBundle: sec.Start + len(sec.Bundles),
				Offset:    off, Ops: ops, Counted: counted,
				Label: name,
			})
			off += ops
		}
	}
	return plan
}

// TestRegionsQualify pins that representative planned loops — a plain
// counted self-loop and a modulo-scheduled kernel section — decode into
// loop regions with consistent prefix sums and head mapping, and that
// loopbuffer-shaped plans align with them. If a schedule change ever
// disqualifies these shapes, the simulator silently loses its fast
// path; this test makes that loud.
func TestRegionsQualify(t *testing.T) {
	for _, modulo := range []bool{false, true} {
		prog := kernelLoopProgram(50)
		code, err := sched.Schedule(prog, machine.Default(), sched.Options{EnableModulo: modulo})
		if err != nil {
			t.Fatal(err)
		}
		plan := planSections(code, 256)
		if len(plan.Loops) == 0 {
			t.Fatalf("modulo=%v: no loop sections recognized", modulo)
		}
		for _, pl := range plan.Loops {
			fc := code.Funcs[pl.Func]
			df := decodedOf(code, fc)
			ri := int32(-1)
			if pl.StartBundle < len(df.regionHead) {
				ri = df.regionHead[pl.StartBundle]
			}
			if ri < 0 {
				t.Fatalf("modulo=%v: loop %s has no region at its head", modulo, pl.Key())
			}
			r := &df.regions[ri]
			if !r.loop {
				t.Fatalf("modulo=%v: region at %s is not a loop region", modulo, pl.Key())
			}
			if int(r.start) != pl.StartBundle || int(r.end) != pl.EndBundle {
				t.Fatalf("modulo=%v: region [%d,%d) does not span loop %s [%d,%d)",
					modulo, r.start, r.end, pl.Key(), pl.StartBundle, pl.EndBundle)
			}
			n := int(r.end - r.start)
			if len(r.opsUpTo) != n+1 {
				t.Fatalf("modulo=%v: region shape mismatch for %s", modulo, pl.Key())
			}
			var total int64
			for pc := int(r.start); pc < int(r.end); pc++ {
				total += int64(len(df.bundles[pc].ops))
			}
			if r.opsUpTo[n] != total {
				t.Fatalf("modulo=%v: opsUpTo[%d] = %d, want %d", modulo, n, r.opsUpTo[n], total)
			}
			// A loopbuffer-shaped plan must align (and an empty plan too).
			bs := newBufferState(plan, 1)
			if i, ok := alignedPlan(bs, bs.loopsFor(pl.Func), r); !ok || i < 0 {
				t.Fatalf("modulo=%v: plan does not align with region for %s", modulo, pl.Key())
			}
			if i, ok := alignedPlan(nil, nil, r); !ok || i >= 0 {
				t.Fatalf("modulo=%v: empty plan should align (unplanned) for %s", modulo, pl.Key())
			}
		}
	}
}

// TestNestRegions pins the nest half of the fast path: a
// modulo-scheduled loop decodes into a kernel loop region *plus*
// straight regions covering code outside the kernel (the pre-loop ramp
// and prologue/epilogue bundles), so a whole resident nest replays
// through region trips rather than only its innermost kernel.
func TestNestRegions(t *testing.T) {
	prog := kernelLoopProgram(50)
	code, err := sched.Schedule(prog, machine.Default(), sched.Options{EnableModulo: true})
	if err != nil {
		t.Fatal(err)
	}
	fc := code.Funcs["main"]
	df := decodedOf(code, fc)
	kernels := 0
	for _, sec := range fc.Sections {
		if sec.Kind == sched.KindKernel {
			kernels++
		}
	}
	if kernels == 0 {
		t.Skip("modulo scheduler produced no kernel section for this shape")
	}
	loops, straights := 0, 0
	for _, r := range df.regions {
		if r.loop {
			loops++
		} else {
			straights++
		}
	}
	if loops == 0 {
		t.Fatal("no loop region in a modulo-scheduled function")
	}
	if straights == 0 {
		t.Fatal("no straight region covering non-kernel code")
	}
	// Region heads must be mutually consistent.
	for ri, r := range df.regions {
		if df.regionHead[r.start] != int32(ri) {
			t.Fatalf("regionHead[%d] = %d, want %d", r.start, df.regionHead[r.start], ri)
		}
	}
}

// TestRegionRejectsCalls pins the fallback side of the qualification:
// a loop body containing a call must not become a region (calls
// re-enter the Go-recursive interpreter).
func TestRegionRejectsCalls(t *testing.T) {
	prog := callProgram()
	// Mark the call loop's back edge so it is planned like a wloop.
	for _, b := range prog.Funcs["main"].Blocks {
		if last := b.LastOp(); last != nil && last.IsBranch() && last.Target == b.ID {
			last.LoopBack = true
		}
	}
	code, err := sched.Schedule(prog, machine.Default(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := planSections(code, 256)
	if len(plan.Loops) == 0 {
		t.Fatal("no loop sections recognized")
	}
	for _, pl := range plan.Loops {
		df := decodedOf(code, code.Funcs[pl.Func])
		for _, r := range df.regions {
			if int(r.start) <= pl.StartBundle && pl.StartBundle < int(r.end) {
				t.Fatalf("loop %s with a call became region [%d,%d)", pl.Key(), r.start, r.end)
			}
		}
	}
}

// TestRegionEngages proves the fast path actually runs end-to-end: a
// buffered counted loop must enter the region runner at least once,
// and the run must still produce the right answer.
func TestRegionEngages(t *testing.T) {
	prog := kernelLoopProgram(100)
	code, err := sched.Schedule(prog, machine.Default(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := planSections(code, 256)
	entries := 0
	testRegionEnter = func(*PlannedLoop) { entries++ }
	defer func() { testRegionEnter = nil }()
	res, err := Run(code, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if entries == 0 {
		t.Fatal("region fast path never engaged on a buffered counted loop")
	}
	want := int64(0)
	for i := 0; i < 100; i++ {
		want += int64(3*i-11) * 5
	}
	if res.Ret != want {
		t.Fatalf("ret = %d, want %d", res.Ret, want)
	}
	// And NoFastPath must force it off.
	entries = 0
	if _, err := Run(code, plan, Options{NoFastPath: true}); err != nil {
		t.Fatal(err)
	}
	if entries != 0 {
		t.Fatalf("NoFastPath run entered the region runner %d times", entries)
	}
}
