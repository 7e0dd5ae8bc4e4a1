package vliw

import (
	"fmt"
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

// midEntryProgram is hand-scheduled straight-line code whose first
// bundle jumps into the middle of the run, so bundles 3–5 form the
// rest of a straight region entered past its head. Bundle 5 stores to
// the program's global, or past the end of memory when fault is set.
func midEntryProgram(fault bool) *sched.Code {
	h := newHandFunc()
	r := h.regs(3)
	j := jump()
	addr := h.addr
	if fault {
		addr = h.prog.MemSize
	}
	return h.code([][]*ir.Op{
		{movI(r[0], addr), movI(r[1], 1), j},
		{movI(r[2], 1)},
		{movI(r[2], 2)},
		{binI(ir.OpAdd, r[1], r[1], 1)},
		{binI(ir.OpMul, r[1], r[1], 3)},
		{{Opcode: ir.OpStW, Src: []ir.Reg{r[0], r[1]}}},
		{ret(r[1])},
	}, map[*ir.Op]int{j: 3}, nil)
}

// TestRegionStopsMatchInterpretive pins the region runner's stops to
// the interpretive path's: a store fault inside a trip, and the cycle
// limit reached at each cycle of a run, return the same error and
// leave the same event stream on both paths — in loop regions, and in
// a straight region entered past its head. A fault keeps the issue
// events of the trip's bundles up to and including the faulting one;
// the cycle limit keeps those before the bundle it stops.
func TestRegionStopsMatchInterpretive(t *testing.T) {
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
			t.Fatalf("%s: fast path stopped with %q after %d events, interpretive with %q after %d",
				what, fe, ft, se, st)
		}
		return fe
	}
	limits := func(what string, code *sched.Code) {
		t.Helper()
		full, err := Run(code, planSections(code, 256), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for maxCycles := int64(1); maxCycles < full.Stats.Cycles; maxCycles++ {
			same(what, code, maxCycles)
		}
	}
	for _, modulo := range []bool{false, true} {
		code, err := sched.Schedule(faultLoopProgram(), machine.Default(), sched.Options{EnableModulo: modulo})
		if err != nil {
			t.Fatal(err)
		}
		if msg := same(fmt.Sprintf("modulo=%v store fault", modulo), code, 0); !strings.Contains(msg, "out of range") {
			t.Fatalf("modulo=%v: fault run ended with %q, want an out-of-range store", modulo, msg)
		}
		code, err = sched.Schedule(kernelLoopProgram(12), machine.Default(), sched.Options{EnableModulo: modulo})
		if err != nil {
			t.Fatal(err)
		}
		limits(fmt.Sprintf("modulo=%v cycle limit", modulo), code)
	}

	mid := 0
	testRegionEnter = func(_ *PlannedLoop, pastHead bool) {
		if pastHead {
			mid++
		}
	}
	defer func() { testRegionEnter = nil }()
	if msg := same("mid-region store fault", midEntryProgram(true), 0); !strings.Contains(msg, "out of range") {
		t.Fatalf("mid-region fault run ended with %q, want an out-of-range store", msg)
	}
	limits("mid-region cycle limit", midEntryProgram(false))
	if mid == 0 {
		t.Fatal("no run entered the straight region past its head")
	}
}
