package interp

import (
	"testing"

	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
)

// callLoopProgram is a counted loop that calls a function every
// iteration — the shape that exercises the interpreter's per-call
// frame and argument scratch.
func callLoopProgram(trips int64) *ir.Program {
	pb := irbuild.NewProgram(16 << 10)
	g := pb.Func("square", 1, true)
	g.Block("entry")
	d := g.Reg()
	g.Mul(d, g.Param(0), g.Param(0))
	g.Ret(d)

	f := pb.Func("main", 0, true)
	f.Block("pre")
	cnt, acc, tmp := f.Reg(), f.Reg(), f.Reg()
	f.MovI(cnt, trips)
	f.MovI(acc, 0)
	f.Block("loop")
	f.Call(tmp, "square", cnt)
	f.Add(acc, acc, tmp)
	f.CLoop(cnt, "loop")
	f.Block("done")
	f.Ret(acc)
	pb.SetEntry("main")
	return pb.MustBuild()
}

// minAllocs returns the fewest heap allocations one call of f makes
// over ten calls. The race detector adds allocations to a random
// subset of runs, so an average over a few runs can differ by one
// between two workloads that allocate alike; the minimum sheds them,
// while an allocation made on every trip shows in every run.
func minAllocs(f func()) float64 {
	least := testing.AllocsPerRun(1, f)
	for i := 1; i < 10; i++ {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestInterpAllocsDoNotScale is the interpreter's version of the
// simulator's zero-alloc-scaling pin (see internal/vliw's
// TestDisabledObsAllocsDoNotScale): per-run allocations must be
// identical at 100 and 3000 call-in-loop trips. The interpreter runs
// every benchmark's full input during profile collection, so a
// reintroduced per-call allocation would show up as compile-time
// regression across the whole experiment pipeline.
func TestInterpAllocsDoNotScale(t *testing.T) {
	run := func(trips int64) float64 {
		prog := callLoopProgram(trips)
		return minAllocs(func() {
			if _, err := Run(prog, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(100), run(3000)
	if large > small {
		t.Fatalf("interpreter allocations scale with trip count: %v at 100 trips, %v at 3000",
			small, large)
	}
}
