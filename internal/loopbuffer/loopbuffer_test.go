package loopbuffer

import (
	"testing"

	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
	"lpbuf/internal/vliw"
)

// twoLoopProgram builds two sequential counted loops with different
// heats so placement priorities are observable.
func twoLoopProgram(hotTrips, coldTrips int64) *ir.Program {
	pb := irbuild.NewProgram(32 << 10)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	acc := f.Reg()
	f.MovI(acc, 0)
	c1 := f.Reg()
	f.MovI(c1, hotTrips)
	f.Block("hot")
	f.AddI(acc, acc, 1)
	f.AddI(acc, acc, 2)
	f.AddI(acc, acc, 3)
	f.CLoop(c1, "hot")
	f.Block("mid")
	c2 := f.Reg()
	f.MovI(c2, coldTrips)
	f.Block("cold")
	f.AddI(acc, acc, 5)
	f.SubI(acc, acc, 1)
	f.AddI(acc, acc, 0)
	f.CLoop(c2, "cold")
	f.Block("done")
	f.Ret(acc)
	pb.SetEntry("main")
	return pb.MustBuild()
}

// planFor schedules prog and measures its loop weights in a plan-free
// execution.
func planFor(t *testing.T, prog *ir.Program, capacity int) (*sched.Code, vliw.Weights) {
	t.Helper()
	code, err := sched.Schedule(prog, machine.Default(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := vliw.Execute(code, vliw.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return code, x.Weights()
}

func TestPlanPlacesBothWhenRoomy(t *testing.T) {
	prog := twoLoopProgram(1000, 100)
	code, prof := planFor(t, prog, 256)
	plan := Plan(code, prof, 256)
	if len(plan.Loops) != 2 {
		t.Fatalf("planned %d loops, want 2", len(plan.Loops))
	}
	// Non-overlapping placement when there is room.
	a, b := plan.Loops[0], plan.Loops[1]
	if a.Offset < b.Offset+b.Ops && b.Offset < a.Offset+a.Ops {
		t.Fatalf("loops overlap unnecessarily: %+v %+v", a, b)
	}
}

func TestPlanPrefersHotLoop(t *testing.T) {
	prog := twoLoopProgram(1000, 100)
	code, prof := planFor(t, prog, 256)
	plan := Plan(code, prof, 256)
	// The hottest loop is placed first (offset 0).
	var hot *struct {
		off  int
		iter float64
	}
	_ = hot
	first := plan.Loops[0]
	if first.Offset != 0 {
		t.Fatalf("first-placed loop at offset %d, want 0", first.Offset)
	}
}

func TestPlanSkipsOversizedLoops(t *testing.T) {
	prog := twoLoopProgram(1000, 100)
	code, prof := planFor(t, prog, 2) // nothing fits
	plan := Plan(code, prof, 2)
	if len(plan.Loops) != 0 {
		t.Fatalf("planned %d loops into 2 ops", len(plan.Loops))
	}
}

func TestPlanSkipsColdLoops(t *testing.T) {
	// A loop that runs once per entry has no reuse: not worth buffering.
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	acc := f.Reg()
	c := f.Reg()
	f.MovI(acc, 0)
	f.MovI(c, 1) // single iteration
	f.Block("once")
	f.AddI(acc, acc, 1)
	f.CLoop(c, "once")
	f.Block("done")
	f.Ret(acc)
	pb.SetEntry("main")
	prog := pb.MustBuild()
	code, prof := planFor(t, prog, 256)
	plan := Plan(code, prof, 256)
	if len(plan.Loops) != 0 {
		t.Fatalf("planned a single-iteration loop: %+v", plan.Loops)
	}
}

func TestLoopLabelUsesBlockName(t *testing.T) {
	prog := twoLoopProgram(50, 50)
	code, prof := planFor(t, prog, 256)
	plan := Plan(code, prof, 256)
	names := map[string]bool{}
	for _, pl := range plan.Loops {
		names[pl.Label] = true
	}
	if !names["main:hot"] || !names["main:cold"] {
		t.Fatalf("labels = %v, want main:hot and main:cold", names)
	}
}
