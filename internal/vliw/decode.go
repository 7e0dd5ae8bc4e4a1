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
	// direct marks a register result, and pdDirect[i] the predicate
	// result PD[i], whose landing no op can observe early: the EQ
	// model's deferred landing is then indistinguishable from storing
	// the value at issue, so the writeback machinery is skipped entirely
	// (see markDirect).
	direct   bool
	pdDirect [2]bool
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
	// regions overlays the bundle space with replayable windows
	// (resident loops and straight-line runs; see region.go). regionAt
	// maps a bundle index to the region control can enter there (-1 for
	// none): a loop region at its head, a straight region at any of its
	// bundles. Nil when the function has no regions.
	regions  []region
	regionAt []int32
	// loops lists the function's loop sections (see sectionIsLoop) in
	// layout order, and loopOf maps a bundle to the index of the loop
	// section holding it (-1 for none); nil when there are none.
	loops  []loopSection
	loopOf []int32
}

// loopSection is one loop section of a decoded function: a
// software-pipelined kernel or a straight self-loop, the sections the
// buffer planner can plan.
type loopSection struct {
	start, end int32
	// stages is a kernel's stage count, 1 for a self-loop: the loop's
	// block runs stages-1 more times per entry than the section (the
	// prologue and epilogue passes).
	stages int64
	// tripOps is the op count of one whole trip.
	tripOps int64
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
		df.bundles[i] = dbundle{ops: flat[start:n:n], fall: int32(fc.FallTarget(i))}
	}
	markDirect(df)
	buildLoops(df, fc)
	buildRegions(df, fc)
	return df
}

// markDirect classifies every result of the function as stored at
// issue (direct) or landed through the writeback machinery. The EQ
// model makes a result of latency L issued at bundle b visible L
// cycles later, and the issue clock advances one bundle per cycle, so
// the schedule alone decides whether any op could tell the two apart.
// A result goes direct only when all four rules hold:
//
//  1. no later op in b reads its destination (a guard reads its
//     predicate) and no other op or predicate slot in b writes it: reads
//     sample at issue in op order, and two same-cycle writes land in
//     issue order;
//  2. no bundle that can issue in the L-1 cycles after b — along
//     fallthrough, branch targets and loop-backs — reads or writes it:
//     such a read must see the old value, and such a write must land
//     after this one;
//  3. no write of it issued before b, on any path into b, is still in
//     flight when b issues (a write of latency L' issued k < L' cycles
//     earlier): the wheel would land that write over the stored value.
//     Walked forward, this clears every write of the destination inside
//     the window of a multi-cycle write, whose own rule 2 clears it;
//  4. neither b nor any bundle in that window calls or returns: the
//     window is counted in issue cycles, and a callee's cycles are not.
//
// Paths start at function entry with an empty frame, since a frame
// begins with nothing in flight. Guards are conservative: a nullified
// op still counts as a reader or writer. A specialized ALU op whose
// result is not direct gives up its kind for ir.KindALU, whose issue
// case does the routing.
func markDirect(df *decodedFunc) {
	g := newBundleGraph(df)
	for pc := range df.bundles {
		ops := df.bundles[pc].ops
		for i := range ops {
			d := &ops[i]
			for k := range resultSlots {
				if l := d.dest(k); l != 0 {
					*d.directFlag(k) = !g.barrier[pc] && // rule 4
						!readAfter(ops, i, l) && !writtenBeside(ops, i, k, l) // rule 1
				}
			}
		}
	}
	for pc := range df.bundles {
		ops := df.bundles[pc].ops
		for i := range ops {
			d := &ops[i]
			if d.lat < 2 {
				continue
			}
			for k := range resultSlots {
				l := d.dest(k)
				if l == 0 {
					continue
				}
				g.window(pc, int(d.lat-1), func(q int) {
					if g.barrier[q] || touches(df.bundles[q].ops, l) { // rules 4 and 2
						*d.directFlag(k) = false
					}
					clearWrites(df.bundles[q].ops, l) // rule 3
				})
			}
		}
	}
	for pc := range df.bundles {
		for i := range df.bundles[pc].ops {
			if d := &df.bundles[pc].ops[i]; !d.direct && d.Kind.IsSpecializedALU() {
				d.Kind = ir.KindALU
			}
		}
	}
}

// A loc names a result's destination: register r as r, predicate p as
// -p. Neither is ever 0, since writes to r0 and p0 are dropped.
type loc int32

// resultSlots counts an op's result slots: its register result, then
// its two predicate destinations.
const resultSlots = 3

// dest returns the destination of result slot k, 0 when the op has no
// such result.
func (d *dop) dest(k int) loc {
	if k == 0 {
		if writesResult(d.Kind) {
			return loc(d.Dest)
		}
		return 0
	}
	if k-1 < int(d.NPD) {
		return -loc(d.PD[k-1].Pred)
	}
	return 0
}

// directFlag returns the direct flag of result slot k.
func (d *dop) directFlag(k int) *bool {
	if k == 0 {
		return &d.direct
	}
	return &d.pdDirect[k-1]
}

// reads reports whether the op reads l at issue: a source register,
// call arguments included, or its guard predicate.
func (d *dop) reads(l loc) bool {
	if l < 0 {
		return d.Guard == ir.PredReg(-l)
	}
	return d.readsReg(ir.Reg(l))
}

// writes reports whether the op may write l: its register result, a
// call's return value or one of its predicate destinations.
func (d *dop) writes(l loc) bool {
	if l > 0 {
		return d.WritesReg(ir.Reg(l))
	}
	for i := uint8(0); i < d.NPD; i++ {
		if d.PD[i].Pred == ir.PredReg(-l) {
			return true
		}
	}
	return false
}

// readAfter reports whether an op after ops[i] reads l.
func readAfter(ops []dop, i int, l loc) bool {
	for j := i + 1; j < len(ops); j++ {
		if ops[j].reads(l) {
			return true
		}
	}
	return false
}

// writtenBeside reports whether an op other than ops[i], or another
// result slot of ops[i], writes l.
func writtenBeside(ops []dop, i, k int, l loc) bool {
	for j := range ops {
		if j != i && ops[j].writes(l) {
			return true
		}
	}
	for kk := range resultSlots {
		if kk != k && ops[i].dest(kk) == l {
			return true
		}
	}
	return false
}

// touches reports whether any op of a bundle reads or writes l.
func touches(ops []dop, l loc) bool {
	for j := range ops {
		if ops[j].reads(l) || ops[j].writes(l) {
			return true
		}
	}
	return false
}

// clearWrites takes every result of a bundle that writes l off the
// direct path.
func clearWrites(ops []dop, l loc) {
	for j := range ops {
		for k := range resultSlots {
			if ops[j].dest(k) == l {
				*ops[j].directFlag(k) = false
			}
		}
	}
}

// bundleGraph is a decoded function's control flow at bundle
// granularity, as markDirect walks it: each bundle's successors
// (fallthrough and every branch target) and whether it calls or
// returns.
type bundleGraph struct {
	// succ[off[pc]:off[pc+1]] are bundle pc's successors.
	off, succ []int32
	barrier   []bool
	// seen stamps the bundles window has visited; cur and next are its
	// frontiers.
	seen      []int32
	stamp     int32
	cur, next []int32
}

func newBundleGraph(df *decodedFunc) *bundleGraph {
	n := len(df.bundles)
	g := &bundleGraph{off: make([]int32, n+1), succ: make([]int32, 0, n),
		barrier: make([]bool, n), seen: make([]int32, n)}
	in := func(t int32) bool { return t >= 0 && int(t) < n }
	for pc := range df.bundles {
		db := &df.bundles[pc]
		if in(db.fall) {
			g.succ = append(g.succ, db.fall)
		}
		for i := range db.ops {
			switch d := &db.ops[i]; d.Kind {
			case ir.KindBr, ir.KindJump, ir.KindBrCLoop:
				if in(d.target) {
					g.succ = append(g.succ, d.target)
				}
			case ir.KindCall, ir.KindRet:
				g.barrier[pc] = true
			}
		}
		g.off[pc+1] = int32(len(g.succ))
	}
	return g
}

// window calls visit once for every bundle that can issue within 1 to
// cycles cycles after bundle pc, pc itself included when a loop brings
// control back that soon.
func (g *bundleGraph) window(pc, cycles int, visit func(q int)) {
	g.stamp++
	g.cur = append(g.cur[:0], int32(pc))
	for c := 0; c < cycles && len(g.cur) > 0; c++ {
		g.next = g.next[:0]
		for _, p := range g.cur {
			for _, q := range g.succ[g.off[p]:g.off[p+1]] {
				if g.seen[q] != g.stamp {
					g.seen[q] = g.stamp
					g.next = append(g.next, q)
					visit(int(q))
				}
			}
		}
		g.cur, g.next = g.next, g.cur
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
