package verify_test

import (
	"strings"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
	"lpbuf/internal/loopbuffer"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
	"lpbuf/internal/verify"
	"lpbuf/internal/vliw"
)

// TestBenchmarksCleanAtSeed: the full Table 1 suite must pass every
// IR-level invariant as written (the verifier's false-positive guard).
func TestBenchmarksCleanAtSeed(t *testing.T) {
	for _, b := range suite.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			if vs := verify.Program("seed", b.Build()); len(vs) > 0 {
				t.Fatalf("seed IR violations: %v", verify.AsError(vs))
			}
		})
	}
}

// TestCompiledBenchmarksClean drives two representative benchmarks
// through both paper configurations and checks the scheduled code and
// buffer plan (the remaining benchmarks are covered by the -tags verify
// CI run and lpbuf -verify).
func TestCompiledBenchmarksClean(t *testing.T) {
	for _, name := range []string{"adpcmenc", "g724dec"} {
		for _, cfg := range []core.Config{core.Traditional(256), core.Aggressive(256)} {
			b, ok := suite.ByName(name)
			if !ok {
				t.Fatalf("unknown benchmark %s", name)
			}
			c, err := core.Compile(b.Build(), cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.Name, err)
			}
			if vs := verify.Program("post-transform", c.TransformedIR); len(vs) > 0 {
				t.Errorf("%s/%s transformed IR: %v", name, cfg.Name, verify.AsError(vs))
			}
			if vs := verify.Code("post-sched", c.Code); len(vs) > 0 {
				t.Errorf("%s/%s scheduled code: %v", name, cfg.Name, verify.AsError(vs))
			}
			w, err := c.Weights()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg.Name, err)
			}
			plan := loopbuffer.Plan(c.Code, w, cfg.BufferCapacity)
			if vs := verify.Plan("bufplan", c.Code, plan); len(vs) > 0 {
				t.Errorf("%s/%s buffer plan: %v", name, cfg.Name, verify.AsError(vs))
			}
		}
	}
}

// brokenProgram builds a program seeded with one specific invariant
// violation, selected by which.
func cleanProgram() *irbuild.Program {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("e")
	a := f.Const(5)
	b := f.Reg()
	f.AddI(b, a, 3)
	f.Ret(b)
	pb.SetEntry("main")
	return pb
}

func wantRule(t *testing.T, vs []verify.Violation, rule string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("expected a %q violation, got: %v", rule, verify.AsError(vs))
}

func TestDetectsUseBeforeDef(t *testing.T) {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("e")
	d := f.Reg()
	u := f.Reg() // never written
	f.AddI(d, u, 1)
	f.Ret(d)
	pb.SetEntry("main")
	wantRule(t, verify.Program("t", pb.MustBuild()), "def-before-use")
}

func TestDetectsUndefinedOnOnePath(t *testing.T) {
	// x defined only on the taken path; the join reads it.
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("e")
	cnd := f.Const(1)
	x := f.Reg()
	f.BrI(ir.CmpEQ, cnd, 0, "skip")
	f.MovI(x, 7)
	f.Block("skip")
	r := f.Reg()
	f.AddI(r, x, 1)
	f.Ret(r)
	pb.SetEntry("main")
	wantRule(t, verify.Program("t", pb.MustBuild()), "def-before-use")
}

func TestDetectsUndefinedGuard(t *testing.T) {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("e")
	d := f.Const(1)
	p := f.F.NewPred() // never defined
	f.AddI(d, d, 1).Guard = p
	f.Ret(d)
	pb.SetEntry("main")
	wantRule(t, verify.Program("t", pb.MustBuild()), "guard-defined")
}

func TestDetectsUninitializedOrContribution(t *testing.T) {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("e")
	a := f.Const(3)
	p := f.F.NewPred()
	// Wired-or contribution with no ut/uf initializer on the path.
	f.CmpPI(p, ir.PTOT, 0, ir.PTNone, ir.CmpGT, a, 1)
	d := f.Const(0)
	f.AddI(d, d, 1).Guard = p
	f.Ret(d)
	pb.SetEntry("main")
	wantRule(t, verify.Program("t", pb.MustBuild()), "pred-init")
}

func TestDetectsShapeAndSpeculativeStore(t *testing.T) {
	pb := cleanProgram()
	prog := pb.MustBuild()
	f := prog.Funcs["main"]
	blk := f.Blocks[0]
	// Forge a register above the allocator bound.
	bad := &ir.Op{ID: f.NewOpID(), Opcode: ir.OpMov, Dest: []ir.Reg{f.NumRegs() + 5},
		Imm: 1, HasImm: true}
	blk.Ops = append([]*ir.Op{bad}, blk.Ops...)
	wantRule(t, verify.Program("t", prog), "reg-range")

	pb2 := cleanProgram()
	prog2 := pb2.MustBuild()
	f2 := prog2.Funcs["main"]
	base := f2.Blocks[0].Ops[0].Dest[0]
	st := &ir.Op{ID: f2.NewOpID(), Opcode: ir.OpStW,
		Src: []ir.Reg{base, base}, Speculative: true}
	f2.Blocks[0].Ops = append([]*ir.Op{f2.Blocks[0].Ops[0], st}, f2.Blocks[0].Ops[1:]...)
	wantRule(t, verify.Program("t", prog2), "speculative")
}

// scheduledCode compiles a small fixed program for schedule-mutation
// tests.
func scheduledCode(t *testing.T) *sched.Code {
	t.Helper()
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	cnt := f.Reg()
	acc := f.Reg()
	f.MovI(cnt, 10)
	f.MovI(acc, 0)
	f.Block("loop")
	f.AddI(acc, acc, 3)
	f.MulI(acc, acc, 5)
	f.CLoop(cnt, "loop")
	f.Block("done")
	f.Ret(acc)
	pb.SetEntry("main")
	code, err := sched.Schedule(pb.MustBuild(), machine.Default(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := verify.Code("t", code); len(vs) > 0 {
		t.Fatalf("baseline schedule not clean: %v", verify.AsError(vs))
	}
	return code
}

func TestDetectsScheduleMutations(t *testing.T) {
	// Slot out of range / wrong unit class.
	code := scheduledCode(t)
	fc := code.Funcs["main"]
	var mul *sched.SOp
	for _, b := range fc.Bundles {
		for _, so := range b.Ops {
			if so.Op.Opcode == ir.OpMul {
				mul = so
			}
		}
	}
	if mul == nil {
		t.Fatal("no mul scheduled")
	}
	mul.Slot = 0 // slot 0 has no IMul unit on the 8-wide machine
	wantRule(t, verify.Code("t", code), "resource")

	// Broken branch target.
	code = scheduledCode(t)
	fc = code.Funcs["main"]
	for _, b := range fc.Bundles {
		for _, so := range b.Ops {
			if so.Op.IsBranch() {
				so.TargetBundle++
			}
		}
	}
	wantRule(t, verify.Code("t", code), "branch-target")

	// Dependence timing: move the mul into the add's cycle (the add
	// feeds it).
	code = scheduledCode(t)
	fc = code.Funcs["main"]
	var from, to *sched.Bundle
	for _, b := range fc.Bundles {
		for _, so := range b.Ops {
			if so.Op.Opcode == ir.OpMul {
				from = b
			}
			if so.Op.Opcode == ir.OpAdd {
				to = b
			}
		}
	}
	if from == nil || to == nil || from == to {
		t.Fatal("unexpected schedule shape")
	}
	var keep []*sched.SOp
	for _, so := range from.Ops {
		if so.Op.Opcode == ir.OpMul {
			so.Slot = 7 // second IMul-capable slot, away from any occupant
			to.Ops = append(to.Ops, so)
		} else {
			keep = append(keep, so)
		}
	}
	from.Ops = keep
	wantRule(t, verify.Code("t", code), "timing")

	// Duplicated op in a section.
	code = scheduledCode(t)
	fc = code.Funcs["main"]
	for _, b := range fc.Bundles {
		for _, so := range b.Ops {
			if so.Op.Opcode == ir.OpAdd {
				dup := *so
				dup.Slot = 4
				b.Ops = append(b.Ops, &dup)
				wantRule(t, verify.Code("t", code), "op-multiplicity")
				return
			}
		}
	}
	t.Fatal("no add found")
}

func TestDetectsPlanViolations(t *testing.T) {
	code := scheduledCode(t)
	mkPlan := func() *vliw.BufferPlan {
		fc := code.Funcs["main"]
		var sec *sched.BlockCode
		for _, s := range fc.Sections {
			for _, b := range s.Bundles {
				for _, so := range b.Ops {
					if so.Op.LoopBack {
						sec = s
					}
				}
			}
		}
		if sec == nil {
			t.Fatal("no loop section")
		}
		n := 0
		for _, b := range sec.Bundles {
			n += len(b.Ops)
		}
		return &vliw.BufferPlan{Capacity: 64, Loops: []*vliw.PlannedLoop{{
			Func: "main", StartBundle: sec.Start, EndBundle: sec.Start + len(sec.Bundles),
			Ops: n, Counted: sec.Kind == sched.KindKernel || hasCLoop(sec), Label: "main:loop",
		}}}
	}
	if vs := verify.Plan("t", code, mkPlan()); len(vs) > 0 {
		t.Fatalf("baseline plan not clean: %v", verify.AsError(vs))
	}

	p := mkPlan()
	p.Loops[0].Offset = p.Capacity - p.Loops[0].Ops + 1 // spills past capacity
	wantRule(t, verify.Plan("t", code, p), "capacity")

	p = mkPlan()
	p.Loops[0].Ops--
	wantRule(t, verify.Plan("t", code, p), "footprint")

	p = mkPlan()
	p.Loops[0].Counted = !p.Loops[0].Counted
	wantRule(t, verify.Plan("t", code, p), "counted")

	p = mkPlan()
	p.Loops[0].EndBundle++
	wantRule(t, verify.Plan("t", code, p), "plan")
}

func hasCLoop(sec *sched.BlockCode) bool {
	for _, b := range sec.Bundles {
		for _, so := range b.Ops {
			if so.Op.Opcode == ir.OpBrCLoop {
				return true
			}
		}
	}
	return false
}

func TestAsErrorTruncates(t *testing.T) {
	var vs []verify.Violation
	for i := 0; i < 12; i++ {
		vs = append(vs, verify.Violation{Phase: "t", Rule: "r", Msg: "m"})
	}
	err := verify.AsError(vs)
	if err == nil || !strings.Contains(err.Error(), "12 invariant violation(s)") ||
		!strings.Contains(err.Error(), "4 more") {
		t.Fatalf("unexpected error rendering: %v", err)
	}
	if verify.AsError(nil) != nil {
		t.Fatal("AsError(nil) should be nil")
	}
}
