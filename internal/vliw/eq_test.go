package vliw

import (
	"testing"

	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
)

// These tests pin the EQ writeback model on hand-scheduled code: a
// result of latency L issued at cycle t lands at t+L, reads before then
// see the old value, and writes landing on one cycle land in issue
// order. Each case is a schedule on which storing some result at issue
// would be observable, so each fails if the rule of markDirect that
// keeps that result on the writeback path is deleted.

// eqWord is the word the hand-built programs load from their global.
const eqWord = 7

// handFunc builds the hand-scheduled programs' function "main" and its
// one-word global.
type handFunc struct {
	prog *ir.Program
	f    *ir.Func
	addr int64
}

func newHandFunc() *handFunc {
	prog := ir.NewProgram(8 << 10)
	addr, err := prog.AddGlobal("w", 4, []byte{eqWord, 0, 0, 0})
	if err != nil {
		panic(err)
	}
	f := ir.NewFunc("main")
	f.HasRet = true
	prog.AddFunc(f)
	prog.Entry = "main"
	return &handFunc{prog: prog, f: f, addr: addr}
}

func (h *handFunc) regs(n int) []ir.Reg {
	rs := make([]ir.Reg, n)
	for i := range rs {
		rs[i] = h.f.NewReg()
	}
	return rs
}

func movI(d ir.Reg, imm int64) *ir.Op {
	return &ir.Op{Opcode: ir.OpMov, Dest: []ir.Reg{d}, Imm: imm, HasImm: true}
}

func binI(opc ir.Opcode, d, a ir.Reg, imm int64) *ir.Op {
	return &ir.Op{Opcode: opc, Dest: []ir.Reg{d}, Src: []ir.Reg{a}, Imm: imm, HasImm: true}
}

func addRR(d, a, b ir.Reg) *ir.Op {
	return &ir.Op{Opcode: ir.OpAdd, Dest: []ir.Reg{d}, Src: []ir.Reg{a, b}}
}

func ldW(d, base ir.Reg) *ir.Op {
	return &ir.Op{Opcode: ir.OpLdW, Dest: []ir.Reg{d}, Src: []ir.Reg{base}}
}

// cmpPEqI defines p unconditionally true when a == imm.
func cmpPEqI(p ir.PredReg, a ir.Reg, imm int64) *ir.Op {
	return &ir.Op{Opcode: ir.OpCmpP, Src: []ir.Reg{a}, Imm: imm, HasImm: true, Cmp: ir.CmpEQ,
		PDest: [2]ir.PredDest{{Pred: p, Type: ir.PTUT}}}
}

func guarded(p ir.PredReg, op *ir.Op) *ir.Op { op.Guard = p; return op }

func ret(r ir.Reg) *ir.Op { return &ir.Op{Opcode: ir.OpRet, Src: []ir.Reg{r}} }

func jump() *ir.Op { return &ir.Op{Opcode: ir.OpJump} }

// brNEI branches when a != imm; loopBack flags a loop-back branch.
func brNEI(a ir.Reg, imm int64, loopBack bool) *ir.Op {
	return &ir.Op{Opcode: ir.OpBr, Src: []ir.Reg{a}, Imm: imm, HasImm: true, Cmp: ir.CmpNE, LoopBack: loopBack}
}

// code schedules bundles[i] as bundle i of main, in slot order, with
// fallthrough to the next bundle; targets maps a branch op to its
// target bundle. loop, when non-nil, is the [start, end) of a straight
// self-loop section; the rest of the bundles form straight sections
// around it.
func (h *handFunc) code(bundles [][]*ir.Op, targets map[*ir.Op]int, loop []int) *sched.Code {
	fc := &sched.FuncCode{F: h.f}
	for _, ops := range bundles {
		b := &sched.Bundle{}
		for slot, op := range ops {
			so := &sched.SOp{Op: op, Slot: slot}
			if t, ok := targets[op]; ok {
				so.TargetBundle = t
			}
			b.Ops = append(b.Ops, so)
		}
		fc.Bundles = append(fc.Bundles, b)
	}
	cuts := []int{0, len(bundles)}
	if loop != nil {
		cuts = []int{0, loop[0], loop[1], len(bundles)}
	}
	for i := 0; i+1 < len(cuts); i++ {
		if cuts[i] < cuts[i+1] {
			fc.Sections = append(fc.Sections, &sched.BlockCode{Kind: sched.KindStraight,
				Start: cuts[i], Bundles: fc.Bundles[cuts[i]:cuts[i+1]]})
		}
	}
	return &sched.Code{Prog: h.prog, Funcs: map[string]*sched.FuncCode{"main": fc}, Mach: machine.Default()}
}

// checkEQ runs code live on both paths and plan-free on both paths and
// requires every run to return want.
func checkEQ(t *testing.T, code *sched.Code, want int64) {
	t.Helper()
	for _, noFast := range []bool{false, true} {
		res, err := Run(code, nil, Options{NoFastPath: noFast})
		if err != nil {
			t.Fatalf("noFast=%v: %v", noFast, err)
		}
		if res.Ret != want {
			t.Errorf("noFast=%v: live run returned %d, want %d", noFast, res.Ret, want)
		}
		x, err := Execute(code, Options{NoFastPath: noFast})
		if err != nil {
			t.Fatalf("noFast=%v: execute: %v", noFast, err)
		}
		if x.Ret != want {
			t.Errorf("noFast=%v: execution returned %d, want %d", noFast, x.Ret, want)
		}
	}
}

// TestEQReadInWindowSeesOldValue: a read issued before a result lands
// sees the register's old value — in the writer's own bundle, in a
// later bundle, at a taken branch's target and after a loop-back to a
// bundle above the writer.
func TestEQReadInWindowSeesOldValue(t *testing.T) {
	t.Run("same bundle", func(t *testing.T) {
		// Rule 1: the add in bundle 1 reads r1 after the op that writes
		// it, so it must see 1, not 11.
		h := newHandFunc()
		r := h.regs(3)
		code := h.code([][]*ir.Op{
			{movI(r[0], 1)},
			{binI(ir.OpAdd, r[0], r[0], 10), binI(ir.OpAdd, r[1], r[0], 0)},
			{addRR(r[2], r[1], r[0])},
			{ret(r[2])},
		}, nil, nil)
		checkEQ(t, code, 1+11)
	})
	t.Run("later bundle", func(t *testing.T) {
		// Rule 2: the load lands at bundle 4, so bundle 2 reads the old 5.
		h := newHandFunc()
		r := h.regs(4)
		code := h.code([][]*ir.Op{
			{movI(r[0], 5), movI(r[3], h.addr)},
			{ldW(r[0], r[3])},
			{binI(ir.OpAdd, r[1], r[0], 0)},
			{},
			{addRR(r[2], r[1], r[0])},
			{ret(r[2])},
		}, nil, nil)
		checkEQ(t, code, 5+eqWord)
	})
	t.Run("taken branch", func(t *testing.T) {
		// Rule 2 along a branch target: the jump takes control to
		// bundle 5 one cycle after the load, before it lands; bundles
		// 2–4, its fallthrough path, never touch r1.
		h := newHandFunc()
		r := h.regs(5)
		j := jump()
		code := h.code([][]*ir.Op{
			{movI(r[0], 5), movI(r[3], h.addr)},
			{ldW(r[0], r[3]), j},
			{movI(r[4], 1)},
			{movI(r[4], 2)},
			{movI(r[4], 3)},
			{binI(ir.OpAdd, r[1], r[0], 0)},
			{},
			{addRR(r[2], r[1], r[0])},
			{ret(r[2])},
		}, map[*ir.Op]int{j: 5}, nil)
		checkEQ(t, code, 5+eqWord)
	})
	t.Run("loop-back", func(t *testing.T) {
		// Rule 2 across a loop-back: bundle 1 reads r1 above the load in
		// bundle 2; the second trip's bundle 1 issues two cycles after
		// the first trip's load, before it lands, and still reads 5.
		h := newHandFunc()
		r := h.regs(4) // r1 value, r2 sum, r3 count, r4 base
		br := brNEI(r[2], 0, true)
		code := h.code([][]*ir.Op{
			{movI(r[0], 5), movI(r[1], 0), movI(r[2], 2), movI(r[3], h.addr)},
			{addRR(r[1], r[1], r[0])},
			{ldW(r[0], r[3]), binI(ir.OpAdd, r[2], r[2], -1)},
			{br},
			{},
			{},
			{addRR(r[1], r[1], r[0])},
			{ret(r[1])},
		}, map[*ir.Op]int{br: 1}, []int{1, 4})
		checkEQ(t, code, 5+5+eqWord)
	})
}

// TestEQEarlierLongerWriteLandsFirst: rule 3. A load (latency 3) and a
// later multiply (latency 2) of the same register land in the same
// cycle, and the EQ model lands them in issue order, so the multiply's
// value wins. Stored at issue, the multiply would be overwritten by the
// load landing after it.
func TestEQEarlierLongerWriteLandsFirst(t *testing.T) {
	h := newHandFunc()
	r := h.regs(4)
	code := h.code([][]*ir.Op{
		{movI(r[3], h.addr), movI(r[1], 4)},
		{ldW(r[0], r[3])},
		{binI(ir.OpMul, r[0], r[1], 2)},
		{},
		{binI(ir.OpAdd, r[2], r[0], 0)},
		{ret(r[2])},
	}, nil, nil)
	checkEQ(t, code, 4*2)
}

// TestEQPredicates pins predicate results: a guard later in the
// defining bundle reads the old predicate (rule 1's reader), and two
// defines of one predicate in one bundle land in issue order (rule 1's
// co-writer).
func TestEQPredicates(t *testing.T) {
	t.Run("guard later in bundle", func(t *testing.T) {
		// p1 starts false: the guarded move in bundle 1 is nullified,
		// the guarded add in bundle 2 sees p1 true.
		h := newHandFunc()
		r := h.regs(2)
		p := h.f.NewPred()
		code := h.code([][]*ir.Op{
			{movI(r[0], 1), movI(r[1], 0)},
			{cmpPEqI(p, r[0], 1), guarded(p, movI(r[1], 42))},
			{guarded(p, binI(ir.OpAdd, r[1], r[1], 1))},
			{ret(r[1])},
		}, nil, nil)
		checkEQ(t, code, 1)
	})
	t.Run("written twice in bundle", func(t *testing.T) {
		// Bundle 1 defines p1 true, then false; both land at the next
		// cycle in issue order, so p1 ends false and the guarded move in
		// bundle 2 is nullified. The guarded add between the defines
		// reads p1's old value.
		h := newHandFunc()
		r := h.regs(2)
		p := h.f.NewPred()
		code := h.code([][]*ir.Op{
			{movI(r[0], 1), movI(r[1], 0)},
			{cmpPEqI(p, r[0], 1), guarded(p, binI(ir.OpAdd, r[1], r[1], 1)), cmpPEqI(p, r[0], 2)},
			{guarded(p, movI(r[1], 42))},
			{ret(r[1])},
		}, nil, nil)
		checkEQ(t, code, 0)
	})
}

// TestDirectWritesClassified pins what the classification buys on the
// shapes above: a multi-cycle result that nothing observes early, and a
// predicate define, are stored at issue.
func TestDirectWritesClassified(t *testing.T) {
	h := newHandFunc()
	r := h.regs(3)
	p := h.f.NewPred()
	code := h.code([][]*ir.Op{
		{movI(r[2], h.addr)},
		{ldW(r[0], r[2])},
		{},
		{},
		{binI(ir.OpMul, r[1], r[0], 3)},
		{},
		{cmpPEqI(p, r[1], 21)},
		{guarded(p, binI(ir.OpAdd, r[1], r[1], 1))},
		{ret(r[1])},
	}, nil, nil)
	checkEQ(t, code, eqWord*3+1)
	df := decodedOf(code, code.Funcs["main"])
	if !df.bundles[1].ops[0].direct {
		t.Error("the load is not stored at issue")
	}
	if d := &df.bundles[4].ops[0]; !d.direct || d.Kind != ir.KindMulRI {
		t.Errorf("the multiply is not stored at issue as KindMulRI (direct %v, kind %d)", d.direct, d.Kind)
	}
	if !df.bundles[6].ops[0].pdDirect[0] {
		t.Error("the predicate define is not stored at issue")
	}
}
