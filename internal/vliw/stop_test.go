package vliw

import (
	"reflect"
	"strings"
	"testing"

	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
	"lpbuf/internal/machine"
	"lpbuf/internal/obs"
	"lpbuf/internal/sched"
)

// faultLoopProgram is a counted loop storing one word per trip from
// eight words before the end of memory, so its ninth trip faults.
func faultLoopProgram() *ir.Program {
	const memSize = 1 << 10
	pb := irbuild.NewProgram(memSize)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	p := f.Const(memSize - 8*4)
	cnt := f.Reg()
	f.MovI(cnt, 100)
	f.Block("loop")
	f.StW(p, 0, cnt)
	f.AddI(p, p, 4)
	f.CLoop(cnt, "loop")
	f.Block("done")
	f.Ret(cnt)
	pb.SetEntry("main")
	return pb.MustBuild()
}

// TestRegionStopsMatchInterpretive pins the region runner's stops to
// the interpretive path's: a store fault inside a trip, and the cycle
// limit reached at each cycle of a run, return the same error and
// leave the same event stream on both paths. A fault keeps the issue
// events of the trip's bundles up to and including the faulting one;
// the cycle limit keeps those before the bundle it stops.
func TestRegionStopsMatchInterpretive(t *testing.T) {
	for _, modulo := range []bool{false, true} {
		run := func(code *sched.Code, noFast bool, maxCycles int64) (string, int64, []obs.SimEvent) {
			o := obs.New(obs.Config{SimEvents: true})
			_, err := Run(code, planSections(code, 256), Options{Obs: o, TraceLabel: "stop",
				MaxCycles: maxCycles, NoFastPath: noFast})
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			return msg, o.Sim.Total(), o.Sim.Events()
		}
		same := func(what string, code *sched.Code, maxCycles int64) string {
			t.Helper()
			fe, ft, fev := run(code, false, maxCycles)
			se, st, sev := run(code, true, maxCycles)
			if fe != se || ft != st || !reflect.DeepEqual(fev, sev) {
				t.Fatalf("modulo=%v %s: fast path stopped with %q after %d events, interpretive with %q after %d",
					modulo, what, fe, ft, se, st)
			}
			return fe
		}

		code, err := sched.Schedule(faultLoopProgram(), machine.Default(), sched.Options{EnableModulo: modulo})
		if err != nil {
			t.Fatal(err)
		}
		if msg := same("store fault", code, 0); !strings.Contains(msg, "out of range") {
			t.Fatalf("modulo=%v: fault run ended with %q, want an out-of-range store", modulo, msg)
		}

		code, err = sched.Schedule(kernelLoopProgram(12), machine.Default(), sched.Options{EnableModulo: modulo})
		if err != nil {
			t.Fatal(err)
		}
		full, err := Run(code, planSections(code, 256), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for maxCycles := int64(1); maxCycles < full.Stats.Cycles; maxCycles++ {
			same("cycle limit", code, maxCycles)
		}
	}
}
