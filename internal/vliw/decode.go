package vliw

import (
	"lpbuf/internal/ir"
	"lpbuf/internal/sched"
)

// This file is the simulator's pre-decode layer. The interpretive loop
// used to re-walk sched.Bundle/ir.Op structures on every fetch:
// re-deriving operand sources (register vs immediate), latencies,
// predicate-define destinations and branch metadata per issue, with
// pointer chases across heap-scattered *ir.Op values. decodeFunc
// flattens a scheduled function once into dense, enum-tagged micro-ops
// (dops) laid out contiguously per function, and the image is cached
// on the FuncCode itself, so every simulation of the same schedule —
// across buffer sweeps, differential runs and concurrent experiment
// jobs — shares one decode. The image is immutable after construction;
// racing decoders build identical images and either store wins.

// dkind is the decoded dispatch class of a micro-op. The op switch in
// issueRun (sim.go) branches on this enum instead of the full opcode
// space.
type dkind uint8

const (
	// dInvalid marks an op the simulator cannot execute; issuing it
	// reproduces the interpretive path's "unhandled op" error.
	dInvalid dkind = iota
	dNop
	dALU // every ir.IsALUEvaluable opcode, including cmpw
	dSel
	dCmpP
	dLoad
	dStore
	dBr
	dJump
	dBrCLoop
	dCall
	dRet
)

// aluKind is the pre-resolved evaluator for a dALU op. The handful of
// opcodes that dominate media kernels get their one-line semantics
// inlined into the execution switch; everything else (saturating ops,
// div/rem, cmpw, min/max, shifts right) falls back to ir.EvalALU. The
// fast cases must mirror ir.EvalALU bit for bit — the randomized
// differential oracle pins that.
type aluKind uint8

const (
	aGeneric aluKind = iota
	aMov
	aAdd
	aSub
	aMul
	aAnd
	aOr
	aXor
	aShl
	aAbs
)

func aluKindOf(opc ir.Opcode) aluKind {
	switch opc {
	case ir.OpMov:
		return aMov
	case ir.OpAdd:
		return aAdd
	case ir.OpSub:
		return aSub
	case ir.OpMul:
		return aMul
	case ir.OpAnd:
		return aAnd
	case ir.OpOr:
		return aOr
	case ir.OpXor:
		return aXor
	case ir.OpShl:
		return aShl
	case ir.OpAbs:
		return aAbs
	}
	return aGeneric
}

// dop is one pre-decoded operation. All dispatch-relevant state is
// resolved at decode time: operand routing (register vs immediate),
// result latency, predicate destinations, branch target bundle and
// loop-back flag, and the callee's scheduled code for calls. The
// original *ir.Op is retained only for error messages.
type dop struct {
	kind dkind
	opc  ir.Opcode
	cmp  ir.CmpKind

	// aImm/bImm route the first/second evaluated operand to imm
	// instead of a register (HasImm puts the immediate in the last
	// source slot, so at most one is set).
	aImm, bImm bool
	// unary marks single-operand ALU ops (mov, abs).
	unary bool
	spec  bool
	// loopBack mirrors ir.Op.LoopBack for branch kinds.
	loopBack bool
	// direct marks a latency-1 register result that no later op in the
	// bundle sources and no other op in the bundle writes: EQ-model
	// visibility (next cycle) is then indistinguishable from storing
	// straight into the register file at issue, so the writeback
	// machinery is skipped entirely (see markDirect).
	direct bool
	// alu selects the inlined evaluator for dALU ops.
	alu aluKind

	guard ir.PredReg
	// a, b, c are the decoded source registers (c only for sel; b is
	// the stored value for stores).
	a, b, c ir.Reg
	dest    ir.Reg
	imm     int64
	lat     int64

	// target is the resolved branch target bundle.
	target int32

	// pd holds the active predicate destinations (pre-filtered, so
	// the hot path never re-derives them per issue).
	pd  [2]ir.PredDest
	nPD uint8

	// callee is the resolved scheduled callee (nil reproduces the
	// unknown-callee error at issue time).
	callee *sched.FuncCode

	// op backs error messages.
	op *ir.Op
}

// dbundle is one decoded issue bundle plus its densified fallthrough
// target, so the fetch path never probes the schedule's map.
type dbundle struct {
	ops  []dop
	fall int32
}

// decodedFunc is the cached pre-decoded image of one FuncCode.
type decodedFunc struct {
	fc      *sched.FuncCode
	bundles []dbundle
	// regions overlays the bundle space with replayable single-entry
	// windows (resident loops and straight-line runs; see region.go).
	// regionHead maps a bundle index to the region starting there (-1
	// for none); nil when the function has no regions.
	regions    []region
	regionHead []int32
}

// decodedOf returns the function's cached decode, building it on first
// use. Safe for concurrent simulations sharing one *sched.Code. A miss
// on the FuncCode's own image falls through to the process-wide
// content-hash cache (decodecache.go), so the same benchmark
// recompiled under a different Suite config — byte-identical schedule,
// distinct allocation — shares one decode instead of rebuilding it.
func decodedOf(code *sched.Code, fc *sched.FuncCode) *decodedFunc {
	if v := fc.DecodedImage(); v != nil {
		if df, ok := v.(*decodedFunc); ok {
			return df
		}
	}
	if df := lookupDecoded(code, fc.F.Name); df != nil {
		fc.SetDecodedImage(df)
		return df
	}
	df := decodeFunc(code, fc)
	fc.SetDecodedImage(df)
	storeDecoded(code, fc.F.Name, df)
	return df
}

// decodeFunc flattens fc into its decoded image. All ops across all
// bundles share one backing array for locality.
func decodeFunc(code *sched.Code, fc *sched.FuncCode) *decodedFunc {
	total := 0
	for _, b := range fc.Bundles {
		total += len(b.Ops)
	}
	flat := make([]dop, total)
	df := &decodedFunc{fc: fc, bundles: make([]dbundle, len(fc.Bundles))}
	n := 0
	for i, b := range fc.Bundles {
		start := n
		for _, so := range b.Ops {
			decodeOp(code, so, &flat[n])
			n++
		}
		markDirect(flat[start:n])
		df.bundles[i] = dbundle{ops: flat[start:n:n], fall: int32(fc.FallTarget(i))}
	}
	buildRegions(df, fc)
	return df
}

// markDirect flags the bundle's direct-writeback results. A latency-1
// write qualifies when no later op in the bundle sources the register
// (reads sample at issue, so only later ops could observe the stale
// value the EQ model mandates) and no other op in the bundle writes it
// (two same-cycle writes routed down different paths could land out of
// issue order). Guards are conservative: a nullified reader at runtime
// still disqualifies at decode time.
func markDirect(ops []dop) {
	for i := range ops {
		d := &ops[i]
		switch d.kind {
		case dALU, dSel, dLoad, dBrCLoop:
		default:
			continue
		}
		if d.lat != 1 || d.dest == 0 {
			continue
		}
		ok := true
		for j := i + 1; j < len(ops); j++ {
			if ops[j].readsReg(d.dest) {
				ok = false
				break
			}
		}
		for j := range ops {
			if !ok {
				break
			}
			if j != i && ops[j].writesReg(d.dest) {
				ok = false
			}
		}
		d.direct = ok
	}
}

// readsReg reports whether the op sources register r at issue time.
// r is never 0 here, and unused operand fields stay 0, so immediate
// slots cannot false-positive.
func (d *dop) readsReg(r ir.Reg) bool {
	switch d.kind {
	case dALU, dCmpP, dBr, dStore:
		return d.a == r || d.b == r
	case dSel:
		return d.a == r || d.b == r || d.c == r
	case dLoad, dBrCLoop, dRet:
		return d.a == r
	case dCall:
		for _, sr := range d.op.Src {
			if sr == r {
				return true
			}
		}
	}
	return false
}

// writesReg reports whether the op defines register r (r is never 0).
func (d *dop) writesReg(r ir.Reg) bool {
	switch d.kind {
	case dALU, dSel, dLoad, dBrCLoop, dCall:
		return d.dest == r
	}
	return false
}

// decodeOp resolves one scheduled op into d under the IR's operand
// convention (the interpreter's src helper): the immediate, when
// present, stands in the last source slot.
func decodeOp(code *sched.Code, so *sched.SOp, d *dop) {
	op := so.Op
	d.opc = op.Opcode
	d.cmp = op.Cmp
	d.guard = op.Guard
	d.imm = op.Imm
	d.spec = op.Speculative
	d.loopBack = op.LoopBack
	d.lat = int64(ir.LatencyOf(op, code.Mach.Latency))
	// EQ-model results land no earlier than the next cycle; clamping
	// here keeps the clamp off the per-write hot path.
	if d.lat < 1 {
		d.lat = 1
	}
	d.target = int32(so.TargetBundle)
	d.op = op
	if len(op.Dest) > 0 {
		d.dest = op.Dest[0]
	}

	// srcAB resolves the two evaluated operands under the HasImm
	// convention used by the interpretive src() helper.
	srcAB := func() {
		if op.HasImm && len(op.Src) == 0 {
			d.aImm = true
		} else if len(op.Src) > 0 {
			d.a = op.Src[0]
		}
		if op.HasImm && len(op.Src) == 1 {
			d.bImm = true
		} else if len(op.Src) > 1 {
			d.b = op.Src[1]
		}
	}

	switch {
	case op.Opcode == ir.OpNop:
		d.kind = dNop

	case op.Opcode == ir.OpCmpP:
		d.kind = dCmpP
		srcAB()
		for _, pd := range op.PredDefines() {
			d.pd[d.nPD] = pd
			d.nPD++
		}

	case op.Opcode == ir.OpSel:
		d.kind = dSel
		d.a, d.b, d.c = op.Src[0], op.Src[1], op.Src[2]

	case ir.IsALUEvaluable(op.Opcode):
		d.kind = dALU
		d.unary = op.Opcode == ir.OpMov || op.Opcode == ir.OpAbs
		d.alu = aluKindOf(op.Opcode)
		srcAB()

	case op.IsLoad():
		d.kind = dLoad
		d.a = op.Src[0]

	case op.IsStore():
		d.kind = dStore
		d.a, d.b = op.Src[0], op.Src[1]

	case op.Opcode == ir.OpBr:
		d.kind = dBr
		srcAB()

	case op.Opcode == ir.OpJump:
		d.kind = dJump

	case op.Opcode == ir.OpBrCLoop:
		d.kind = dBrCLoop
		d.a = op.Src[0]

	case op.Opcode == ir.OpCall:
		d.kind = dCall
		d.callee = code.Funcs[op.Callee]

	case op.Opcode == ir.OpRet:
		d.kind = dRet
		if len(op.Src) > 0 {
			d.a = op.Src[0]
		}

	default:
		d.kind = dInvalid
	}
}
