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

// dop is one pre-decoded operation: ir.Decode's kind and operand
// routing plus what only the simulator needs — result latency,
// writeback routing, branch target bundle and loop-back flag, and the
// callee's scheduled code for calls. The original *ir.Op is retained
// for error messages and call arguments. Kinds the simulator does not
// execute (the loop-buffer directives) decode as ir.KindInvalid, and
// the specialized ALU kinds are kept only for direct writes (see
// markDirect): other writes of those ops take ir.KindALU.
type dop struct {
	ir.DecodedOp
	// loopBack mirrors ir.Op.LoopBack for branch kinds.
	loopBack bool
	// direct marks a latency-1 register result that no later op in the
	// bundle sources and no other op in the bundle writes: EQ-model
	// visibility (next cycle) is then indistinguishable from storing
	// straight into the register file at issue, so the writeback
	// machinery is skipped entirely (see markDirect).
	direct bool
	// target is the resolved branch target bundle.
	target int32
	lat    int64

	// callee is the resolved scheduled callee (nil reproduces the
	// unknown-callee error at issue time).
	callee *sched.FuncCode

	// op backs error messages and call arguments.
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
// use. Safe for concurrent simulations sharing one *sched.Code. The
// image lives with its compile: nothing is shared across *sched.Code
// allocations, so every pointer in it (fc, callees, ops) belongs to
// code.
func decodedOf(code *sched.Code, fc *sched.FuncCode) *decodedFunc {
	if v := fc.DecodedImage(); v != nil {
		if df, ok := v.(*decodedFunc); ok {
			return df
		}
	}
	df := decodeFunc(code, fc)
	fc.SetDecodedImage(df)
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
// still disqualifies at decode time. A specialized ALU op that writes
// through the writeback machinery gives up its kind for ir.KindALU,
// whose issue case does the routing.
func markDirect(ops []dop) {
	for i := range ops {
		d := &ops[i]
		if !writesResult(d.Kind) {
			continue
		}
		ok := d.lat == 1 && d.Dest != 0
		for j := i + 1; ok && j < len(ops); j++ {
			if ops[j].readsReg(d.Dest) {
				ok = false
			}
		}
		for j := range ops {
			if !ok {
				break
			}
			if j != i && ops[j].WritesReg(d.Dest) {
				ok = false
			}
		}
		d.direct = ok
		if !ok && d.Kind.IsSpecializedALU() {
			d.Kind = ir.KindALU
		}
	}
}

// writesResult reports the kinds whose register result may go direct.
func writesResult(k ir.Kind) bool {
	switch k {
	case ir.KindALU, ir.KindSel, ir.KindBrCLoop:
		return true
	}
	return k.IsSpecializedALU() || k.IsWidthLoad()
}

// readsReg reports whether the op sources register r at issue time,
// call arguments included. r is never 0 here, and unused operand
// fields stay 0, so immediate slots cannot false-positive.
func (d *dop) readsReg(r ir.Reg) bool {
	if d.Kind == ir.KindCall {
		for _, sr := range d.op.Src {
			if sr == r {
				return true
			}
		}
		return false
	}
	return d.ReadsReg(r)
}

// decodeOp resolves one scheduled op into d: ir.Decode's dispatch and
// operand routing, then the simulator's own latency, target bundle and
// callee.
func decodeOp(code *sched.Code, so *sched.SOp, d *dop) {
	op := so.Op
	d.DecodedOp = ir.Decode(op)
	if d.Kind == ir.KindExecLoop || d.Kind == ir.KindRecLoop {
		d.Kind = ir.KindInvalid
	}
	d.loopBack = op.LoopBack
	d.lat = int64(ir.LatencyOf(op, code.Mach.Latency))
	// EQ-model results land no earlier than the next cycle; clamping
	// here keeps the clamp off the per-write hot path.
	if d.lat < 1 {
		d.lat = 1
	}
	d.target = int32(so.TargetBundle)
	d.op = op
	if d.Kind == ir.KindCall {
		d.callee = code.Funcs[op.Callee]
	}
}
