package vliw

import (
	"fmt"

	"lpbuf/internal/ir"
	"lpbuf/internal/obs"
	"lpbuf/internal/sched"
)

// This file is the region replay fast path — the generalization of the
// old innermost-kernel fast path to whole resident-loop nests. The
// decoded image overlays the bundle space with *regions*: resident-loop
// bodies (loop sections as the buffer planner recognizes them —
// software-pipelined kernels and self-loop straight sections) plus
// maximal straight-line runs such as pipelined prologues and epilogues.
// Regions are plan-independent: a plan-free execution and a live run
// under any planner-shaped plan use the same ones.
//
// At a region head the simulator executes whole trips over the
// pre-decoded bundles with the invariant work hoisted out of the
// per-op path:
//
//   - per-op fetch statistics (OpsIssued / OpsFromBuffer / OpsBuffered
//     / OpsMemory) collapse to one pre-summed add per trip (opsUpTo
//     prefix sums handle partial trips on side exits);
//   - per-bundle SimIssue events are emitted as one batch per trip
//     (obs.SimTrace.EmitBatch);
//   - the loop-buffer state machine runs once per trip, at the head
//     fetch, instead of once per bundle: inside a trip it is a no-op by
//     construction (the fetch state can only change at the head);
//   - a plan-free execution counts the trips that end in the loop-back
//     into one trace event instead of recording each (recordRegion).
//
// Anything the fast path cannot reproduce bit-exactly — calls, returns,
// undecodable ops, non-linear fallthrough, plans that straddle region
// boundaries — disqualifies the region (or the plan's alignment) and
// falls back to the interpretive loop. A trip's ops issue through
// issueRun, the interpretive path's own op switch, and its exits share
// resolveControl, so op semantics, faults, the cycle limit, penalties
// and redirect events are the interpretive path's by construction; only
// the fetch accounting differs in form. The differential fast-path test
// and the oracle's fast-vs-interpretive contract pin all of this.

// testRegionEnter, when non-nil, observes every loop-region fast-path
// entry of a live run whose plan buffers the loop. Test hook only (set
// by non-parallel tests); the nil check sits on the region-head path,
// not the per-cycle path.
var testRegionEnter func(*PlannedLoop)

// region is one replayable window of a decoded function.
type region struct {
	// start/end delimit the region's bundles.
	start, end int32
	// loop marks a resident-loop region (multi-trip replay; the head
	// fetch runs the buffer state machine every trip). False is a
	// straight-line run executed as a single pass.
	loop bool
	// sec is a loop region's index in decodedFunc.loops.
	sec int32
	// opsUpTo[j] is the op count of bundles [start, start+j);
	// opsUpTo[end-start] is the full trip's op count.
	opsUpTo []int64
}

// funcCtx is one simulation's per-function execution context: the
// shared decode image plus the live plan's planned-loop table and the
// per-region alignment verdicts.
type funcCtx struct {
	df *decodedFunc
	// tab is the live plan's per-bundle planned-loop table for this
	// function (nil in a plan-free execution or when the plan has no
	// loops here; see bufferState.loopsFor).
	tab []int32
	// regionUse[ri] reports whether df.regions[ri] is usable under the
	// plan (every region is, in a plan-free execution); regionPl[ri] is
	// then the planned loop spanning the region (-1 for an unplanned or
	// straight region).
	regionUse []bool
	regionPl  []int32
	// secBase is the trace's id of df.loops[0] (plan-free only).
	secBase int32
}

// funcCtxOf returns (building and caching on first use) the function's
// execution context for this simulation.
func (s *sim) funcCtxOf(fc *sched.FuncCode) *funcCtx {
	if fx := s.fctx[fc]; fx != nil {
		return fx
	}
	df := decodedOf(s.code, fc)
	fx := &funcCtx{df: df}
	var bs *bufferState
	if s.acct != nil {
		bs = s.acct.buf
		fx.tab = bs.loopsFor(fc.F.Name)
	}
	if s.rec != nil {
		fx.secBase = s.rec.base[fc]
	}
	if !s.opts.NoFastPath && len(df.regions) > 0 {
		fx.regionUse = make([]bool, len(df.regions))
		fx.regionPl = make([]int32, len(df.regions))
		for ri := range df.regions {
			fx.regionPl[ri], fx.regionUse[ri] = alignedPlan(bs, fx.tab, &df.regions[ri])
		}
	}
	s.fctx[fc] = fx
	return fx
}

// alignedPlan checks the plan of buffer state bs (nil in a plan-free
// execution), whose table for the region's function is tab, against a
// region: usable when the plan either ignores the region entirely (no
// planned loop covers any of its bundles) or dedicates exactly one
// planned loop to exactly the region's range — the shape
// internal/loopbuffer emits for loop sections. Anything else
// (hand-built plans straddling region boundaries) sends the whole
// region to the interpretive path.
func alignedPlan(bs *bufferState, tab []int32, r *region) (int32, bool) {
	at := func(pc int) int32 {
		if pc < len(tab) {
			return tab[pc]
		}
		return -1
	}
	i := at(int(r.start))
	for pc := int(r.start); pc < int(r.end); pc++ {
		if at(pc) != i {
			return -1, false
		}
	}
	pl := bs.loop(i)
	if pl == nil {
		return -1, true
	}
	if !r.loop || pl.StartBundle != int(r.start) || pl.EndBundle != int(r.end) {
		return -1, false
	}
	return i, true
}

// buildLoops lists df's loop sections and maps each of their bundles
// to its section.
func buildLoops(df *decodedFunc, fc *sched.FuncCode) {
	n := len(df.bundles)
	for _, sec := range fc.Sections {
		start, end := sec.Start, sec.Start+len(sec.Bundles)
		if !sectionIsLoop(sec) || start < 0 || end > n || start >= end {
			continue
		}
		if df.loopOf == nil {
			df.loopOf = make([]int32, n)
			for i := range df.loopOf {
				df.loopOf[i] = -1
			}
		}
		ls := loopSection{start: int32(start), end: int32(end), stages: 1}
		if sec.Kind == sched.KindKernel {
			ls.stages = int64(sec.Stages)
		}
		for pc := start; pc < end; pc++ {
			df.loopOf[pc] = int32(len(df.loops))
			ls.tripOps += int64(len(df.bundles[pc].ops))
		}
		df.loops = append(df.loops, ls)
	}
}

// buildRegions overlays df's bundle space with replayable regions.
// Loop regions are the loop sections that qualify (exactly the
// sections the buffer planner recognizes, so real plans always align);
// straight regions are the maximal runs of qualifying bundles outside
// every loop section linked by linear fallthrough — pipelined
// prologues and epilogues chief among them, so a whole
// software-pipelined nest (prologue → kernel → epilogue) replays
// through region trips. A straight region holds no loop-section
// bundle, so its trips never touch a planned loop.
func buildRegions(df *decodedFunc, fc *sched.FuncCode) {
	n := len(df.bundles)
	if n == 0 {
		return
	}
	var regions []region
	for li, ls := range df.loops {
		if regionQualifies(df, int(ls.start), int(ls.end)) {
			r := newRegion(df, int(ls.start), int(ls.end), true)
			r.sec = int32(li)
			regions = append(regions, r)
		}
	}
	inLoop := func(pc int) bool { return df.loopOf != nil && df.loopOf[pc] >= 0 }
	for pc := 0; pc < n; {
		if inLoop(pc) || !bundleQualifies(&df.bundles[pc]) {
			pc++
			continue
		}
		start := pc
		pc++
		for pc < n && !inLoop(pc) && int(df.bundles[pc-1].fall) == pc &&
			bundleQualifies(&df.bundles[pc]) {
			pc++
		}
		// A single bundle gains nothing from trip batching.
		if pc-start >= 2 {
			regions = append(regions, newRegion(df, start, pc, false))
		}
	}
	if len(regions) == 0 {
		return
	}
	df.regions = regions
	df.regionHead = make([]int32, n)
	for i := range df.regionHead {
		df.regionHead[i] = -1
	}
	for ri := range regions {
		df.regionHead[regions[ri].start] = int32(ri)
	}
}

// sectionIsLoop mirrors the buffer planner's loop recognition
// (loopbuffer.sectionLoop): modulo-scheduled kernels, and straight
// sections whose loop-back branch targets their own start.
func sectionIsLoop(sec *sched.BlockCode) bool {
	switch sec.Kind {
	case sched.KindKernel:
		return true
	case sched.KindStraight:
		for _, b := range sec.Bundles {
			for _, so := range b.Ops {
				if so.Op.LoopBack && so.Op.IsBranch() && so.TargetBundle == sec.Start {
					return true
				}
			}
		}
	}
	return false
}

// regionQualifies vets [start, end) for region execution: every bundle
// qualifies and internal fallthrough is linear.
func regionQualifies(df *decodedFunc, start, end int) bool {
	for pc := start; pc < end; pc++ {
		db := &df.bundles[pc]
		if !bundleQualifies(db) {
			return false
		}
		if pc < end-1 && int(db.fall) != pc+1 {
			return false
		}
	}
	return true
}

// bundleQualifies rejects bundles the region runner cannot execute:
// calls and returns (they re-enter the Go-recursive interpreter),
// undecodable ops, and more than one branch per bundle.
func bundleQualifies(db *dbundle) bool {
	branches := 0
	for i := range db.ops {
		switch db.ops[i].Kind {
		case ir.KindCall, ir.KindRet, ir.KindInvalid:
			return false
		case ir.KindBr, ir.KindJump, ir.KindBrCLoop:
			branches++
		}
	}
	return branches <= 1
}

func newRegion(df *decodedFunc, start, end int, loop bool) region {
	r := region{start: int32(start), end: int32(end), loop: loop, sec: -1}
	n := end - start
	r.opsUpTo = make([]int64, n+1)
	for j := 0; j < n; j++ {
		r.opsUpTo[j+1] = r.opsUpTo[j] + int64(len(df.bundles[start+j].ops))
	}
	return r
}

// sampleTrip reconstructs the PMU sampling clock's firings across one
// (possibly partial) region trip analytically, without leaving the
// fast path: the trip's bundles issued at the contiguous cycles
// [iterBase, iterBase+count), so every scheduled sample cycle in that
// window fires at its exact interpretive position (samples that came
// due during non-issue cycles — call redirects — clamp forward to the
// first issue cycle, exactly as the interpretive `now >= next` compare
// does). The fetch verdict is invariant across a trip (the buffer state
// machine only transitions at the head), so a live run attributes each
// sample exactly as the per-bundle hook would, and a plan-free
// execution records it for the folds; the differential PMU test pins
// that. Must run after the trip's fetch accounting so counter-track
// points see it. Callers pre-check that a sample is due inside the trip
// window (this function has a loop, so the compiler cannot inline the
// common no-sample case away).
func (s *sim) sampleTrip(fc *sched.FuncCode, r *region, sec int32, pl *PlannedLoop, fromBuf bool, iterBase int64, count int) {
	last := iterBase + int64(count) - 1
	for s.pmu.Next() <= last {
		c := max(s.pmu.Next(), iterBase)
		idx := c - iterBase
		pc := r.start + int32(idx)
		ops := r.opsUpTo[idx+1] - r.opsUpTo[idx]
		if s.rec != nil {
			s.rec.sample(fc, sec, pc, c, ops, s.shared)
		} else {
			s.acct.sample(fc.F.Name, pl, pc, c, ops, fromBuf, s.shared)
		}
		s.pmu.Fire(c)
	}
}

// flushRegion emits the trip's first count SimIssue events, stamped
// with their actual cycles, as one batch. Must run before any exit-path
// event (redirect, loop exit) so the ring's order matches the
// interpretive path exactly.
func (s *sim) flushRegion(fc *sched.FuncCode, df *decodedFunc, r *region, fromBuf bool, iterBase int64, count int) {
	a := s.acct
	if count == 0 || a.ring == nil {
		return
	}
	aux := int64(0)
	if fromBuf {
		aux = 1
	}
	start := int(r.start)
	evs := s.evScratch[:0]
	for j := 0; j < count; j++ {
		evs = append(evs, obs.SimEvent{Cycle: iterBase + int64(j),
			Kind: obs.SimIssue, Run: a.label, Func: fc.F.Name,
			PC:  int32(start + j),
			Arg: int64(len(df.bundles[start+j].ops)), Aux: aux})
	}
	s.evScratch = evs
	a.ring.EmitBatch(evs)
}

// runRegion executes trips of region ri until control leaves it,
// returning the bundle to resume the interpretive loop at and the last
// bundle the region issued. Entered at the region head from bundle
// prev (-1 at function entry); a plan-free execution records the trips
// instead (recordRegion). In a live run every trip starts with the head
// fetch, so entry, the record→replay transition, per-iteration
// bookkeeping and residency events happen exactly as on the
// interpretive path. Within a trip the fetch verdict is invariant (the
// buffer state machine can only transition at the head), which is what
// lets per-bundle accounting collapse to per-trip sums. The trip's
// bundles issue through issueRun in one call, which returns at the
// first branch or at the region end.
func (s *sim) runRegion(f *frame, fx *funcCtx, ri int, sc *scratch, prev int) (int, int, error) {
	if s.rec != nil {
		return s.recordRegion(f, fx, ri, sc, prev)
	}
	df := fx.df
	r := &df.regions[ri]
	fc := f.fc
	a := s.acct
	pl := fx.regionPl[ri]
	if r.loop && pl >= 0 && testRegionEnter != nil {
		testRegionEnter(a.buf.loop(pl))
	}
	start := int(r.start)
	for {
		// As on the interpretive path, a run past the cycle limit stops
		// before the fetch, so the head fetch's buffer events stay out.
		if s.now > s.opts.MaxCycles {
			return 0, 0, cycleLimit(fc, start)
		}
		iterBase := s.now
		// The head fetch is a no-op unless the plan buffers the region
		// or a residency is open.
		fromBuf, ls := false, (*LoopStats)(nil)
		if pl >= 0 || a.buf.streaming() {
			fromBuf, ls = a.buf.fetch(pl, fc.F.Name, start, s.now, a)
		}
		end, nullified, err := s.issueRun(f, df, start, int(r.end), sc)
		count := end - start
		// The trip fetched bundles [start, end): account them, take
		// their samples and flush their events before any exit-path
		// event, so the ring's order matches the interpretive path. A
		// predicted loop-back resolves to zero penalty and no event
		// inside resolveControl.
		if err != nil {
			s.flushRegion(fc, df, r, fromBuf, iterBase, count)
			return 0, 0, err
		}
		s.shared.issued += r.opsUpTo[count]
		s.shared.nullified += nullified
		a.count(fromBuf, ls, r.opsUpTo[count])
		if s.pmu != nil && s.pmu.Next() < iterBase+int64(count) {
			s.sampleTrip(fc, r, -1, a.buf.loop(pl), fromBuf, iterBase, count)
		}
		s.flushRegion(fc, df, r, fromBuf, iterBase, count)
		next, err := s.leaveTrip(f, df, sc, end)
		if err != nil {
			return 0, 0, err
		}
		if !r.loop || next != start {
			return next, end - 1, nil
		}
		// Loop-back to the region head: next trip (its head fetch does
		// the per-iteration bookkeeping).
	}
}

// leaveTrip resolves the control transfer at the end of a region trip
// whose last issued bundle is end-1, advances the clock and returns the
// bundle control goes to.
func (s *sim) leaveTrip(f *frame, df *decodedFunc, sc *scratch, end int) (int, error) {
	next := -2
	if len(sc.branches) != 0 {
		next = s.resolveControl(f.fc, end-1, sc)
	}
	s.tick(f)
	if next == -2 {
		if next = int(df.bundles[end-1].fall); next < 0 {
			return 0, fmt.Errorf("vliw: fell off end of %s", f.fc.F.Name)
		}
	}
	return next, nil
}

// recordRegion is runRegion for a plan-free execution: it executes
// trips of region ri and records them in the loop-level trace. A trip
// of a loop region that ends in the taken loop-back to its head, with
// no PMU sample due, is counted; the counted trips become one evTrips
// event when a trip of any other kind comes. That trip is an evFetch
// of the head carrying the ops it issued, followed by its samples and
// its branch events. A straight region holds no loop-section bundle,
// so its first trip closes loop activity and it records nothing else
// but samples.
func (s *sim) recordRegion(f *frame, fx *funcCtx, ri int, sc *scratch, prev int) (int, int, error) {
	df := fx.df
	r := &df.regions[ri]
	fc := f.fc
	rec := s.rec
	start := int(r.start)
	sec := int32(-1)
	if r.loop {
		sec = fx.secBase + r.sec
		rec.enter(sec, prev)
	} else {
		rec.outside()
	}
	bp := int64(s.code.Mach.BranchPenalty)
	var counted int64
	for {
		if s.now > s.opts.MaxCycles {
			return 0, 0, cycleLimit(fc, start)
		}
		iterBase := s.now
		end, nullified, err := s.issueRun(f, df, start, int(r.end), sc)
		if err != nil {
			return 0, 0, err
		}
		count := end - start
		ops := r.opsUpTo[count]
		s.shared.issued += ops
		s.shared.nullified += nullified
		if r.loop && end == int(r.end) && len(sc.branches) == 1 {
			ba := sc.branches[0]
			if ba.taken && ba.d.loopBack && int(ba.d.target) == start &&
				(s.pmu == nil || s.pmu.Next() >= iterBase+int64(count)) {
				counted++
				s.shared.penalty += bp
				s.tick(f)
				continue
			}
		}
		if r.loop {
			rec.trips(sec, counted)
			counted = 0
			rec.head(sec, ops)
		}
		if s.pmu != nil && s.pmu.Next() < iterBase+int64(count) {
			s.sampleTrip(fc, r, sec, nil, false, iterBase, count)
		}
		next, err := s.leaveTrip(f, df, sc, end)
		if err != nil {
			return 0, 0, err
		}
		if !r.loop || next != start {
			return next, end - 1, nil
		}
	}
}
