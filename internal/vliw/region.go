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
// Regions are plan-independent, so one decode serves every buffer plan
// in a batch.
//
// At a region head the simulator executes whole trips over the
// pre-decoded bundles with the invariant work hoisted out of the
// per-op path:
//
//   - per-op fetch statistics (OpsIssued / OpsFromBuffer / OpsBuffered
//     / OpsMemory) collapse to one pre-summed add per account per trip
//     (opsUpTo prefix sums handle partial trips on side exits);
//   - per-bundle SimIssue events are emitted as one batch per account
//     per trip (obs.SimTrace.EmitBatch);
//   - the loop-buffer state machine runs once per trip, at the head
//     fetch, instead of once per bundle: inside a trip it is a no-op by
//     construction (the fetch state can only change at the head);
//   - once every account is steady in a loop, its trips are counted and
//     folded into the accounts when the loop stops looping back.
//
// Anything the fast path cannot reproduce bit-exactly — calls, returns,
// undecodable ops, non-linear fallthrough, plans that straddle region
// boundaries — disqualifies the region (or the account alignment) and
// falls back to the interpretive loop. A trip's ops issue through
// issueRun, the interpretive path's own op switch, and its exits share
// resolveControl, so op semantics, faults, the cycle limit, penalties
// and redirect events are the interpretive path's by construction; only
// the fetch accounting differs in form. The differential fast-path test
// and the oracle's fast-vs-interpretive contract pin all of this.

// testRegionEnter, when non-nil, observes every loop-region fast-path
// entry with some planned account. Test hook only (set by non-parallel
// tests); the nil check sits on the region-head path, not the per-cycle
// path.
var testRegionEnter func(*PlannedLoop)

// region is one replayable window of a decoded function.
type region struct {
	// start/end delimit the region's bundles.
	start, end int32
	// loop marks a resident-loop region (multi-trip replay; the head
	// fetch runs the buffer state machine every trip). False is a
	// straight-line run executed as a single pass.
	loop bool
	// opsUpTo[j] is the op count of bundles [start, start+j);
	// opsUpTo[end-start] is the full trip's op count.
	opsUpTo []int64
}

// funcCtx is one simulation's per-function execution context: the
// shared decode image plus each account's planned-loop table and the
// per-region alignment verdicts.
type funcCtx struct {
	df *decodedFunc
	// tabs[ai] is account ai's per-bundle planned-loop table for this
	// function (nil when its plan has no loops here).
	tabs [][]*PlannedLoop
	// covered[pc] reports whether some account's plan covers bundle pc
	// (short when no plan reaches the function's later bundles).
	covered []bool
	// regionUse[ri] reports whether df.regions[ri] is usable by every
	// account; regionPls[ri][ai] is then account ai's planned loop
	// spanning the region (nil for an unplanned account or a straight
	// region), and regionPlanned[ri] whether any account plans it.
	regionUse     []bool
	regionPls     [][]*PlannedLoop
	regionPlanned []bool
}

// funcCtxOf returns (building and caching on first use) the function's
// execution context for this simulation.
func (s *sim) funcCtxOf(fc *sched.FuncCode) *funcCtx {
	if fx := s.fctx[fc]; fx != nil {
		return fx
	}
	df := decodedOf(s.code, fc)
	fx := &funcCtx{df: df, tabs: make([][]*PlannedLoop, len(s.accts))}
	covered := 0
	for ai, a := range s.accts {
		fx.tabs[ai] = a.buf.loopsFor(fc.F.Name)
		covered = max(covered, len(fx.tabs[ai]))
	}
	if covered > 0 {
		fx.covered = make([]bool, covered)
		for _, tab := range fx.tabs {
			for pc, pl := range tab {
				if pl != nil {
					fx.covered[pc] = true
				}
			}
		}
	}
	if !s.opts.NoFastPath && len(df.regions) > 0 {
		fx.regionUse = make([]bool, len(df.regions))
		fx.regionPls = make([][]*PlannedLoop, len(df.regions))
		fx.regionPlanned = make([]bool, len(df.regions))
		for ri := range df.regions {
			r := &df.regions[ri]
			pls := make([]*PlannedLoop, len(s.accts))
			use, planned := true, false
			for ai := range s.accts {
				pl, ok := alignedPlan(fx.tabs[ai], r)
				if !ok {
					use = false
					break
				}
				pls[ai] = pl
				planned = planned || pl != nil
			}
			fx.regionUse[ri] = use
			if use {
				fx.regionPls[ri] = pls
				fx.regionPlanned[ri] = planned
			}
		}
	}
	s.fctx[fc] = fx
	return fx
}

// alignedPlan checks one account's plan against a region: usable when
// the plan either ignores the region entirely (no planned loop covers
// any of its bundles) or dedicates exactly one planned loop to exactly
// the region's range — the shape internal/loopbuffer emits for loop
// sections. Anything else (hand-built plans straddling region
// boundaries) sends the whole region to the interpretive path.
func alignedPlan(tab []*PlannedLoop, r *region) (*PlannedLoop, bool) {
	var pl0 *PlannedLoop
	if int(r.start) < len(tab) {
		pl0 = tab[r.start]
	}
	for pc := int(r.start); pc < int(r.end); pc++ {
		var pl *PlannedLoop
		if pc < len(tab) {
			pl = tab[pc]
		}
		if pl != pl0 {
			return nil, false
		}
	}
	if pl0 == nil {
		return nil, true
	}
	if !r.loop || pl0.StartBundle != int(r.start) || pl0.EndBundle != int(r.end) {
		return nil, false
	}
	return pl0, true
}

// buildRegions overlays df's bundle space with replayable regions.
// Loop regions come from the schedule's loop sections (exactly the
// sections the buffer planner recognizes, so real plans always align);
// straight regions are the maximal remaining runs of qualifying
// bundles linked by linear fallthrough — pipelined prologues and
// epilogues chief among them, so a whole software-pipelined nest
// (prologue → kernel → epilogue) replays through region trips.
func buildRegions(df *decodedFunc, fc *sched.FuncCode) {
	n := len(df.bundles)
	if n == 0 {
		return
	}
	claimed := make([]bool, n)
	var regions []region
	for _, sec := range fc.Sections {
		if !sectionIsLoop(sec) {
			continue
		}
		start, end := sec.Start, sec.Start+len(sec.Bundles)
		if start < 0 || end > n || start >= end {
			continue
		}
		if !regionQualifies(df, start, end) {
			continue
		}
		regions = append(regions, newRegion(df, start, end, true))
		for pc := start; pc < end; pc++ {
			claimed[pc] = true
		}
	}
	for pc := 0; pc < n; {
		if claimed[pc] || !bundleQualifies(&df.bundles[pc]) {
			pc++
			continue
		}
		start := pc
		pc++
		for pc < n && !claimed[pc] && int(df.bundles[pc-1].fall) == pc &&
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
	r := region{start: int32(start), end: int32(end), loop: loop}
	n := end - start
	r.opsUpTo = make([]int64, n+1)
	for j := 0; j < n; j++ {
		r.opsUpTo[j+1] = r.opsUpTo[j] + int64(len(df.bundles[start+j].ops))
	}
	return r
}

// accountTrip folds one (possibly partial) trip's pre-summed fetch
// statistics: the issued and nullified ops into the shared counts, and
// the buffer split into every account, routed by that account's
// head-fetch verdict for this trip.
func (s *sim) accountTrip(issued, nullified int64) {
	s.shared.issued += issued
	s.shared.nullified += nullified
	for ai, a := range s.accts {
		if s.fromBuf[ai] {
			a.stats.OpsFromBuffer += issued
			if ls := s.lss[ai]; ls != nil {
				ls.OpsBuffered += issued
			}
		} else if ls := s.lss[ai]; ls != nil {
			ls.OpsMemory += issued
		}
	}
}

// steady reports whether every account is steady in the loop region
// whose planned loops are pls: it either streams its loop from the
// buffer while replaying, or neither plans the region nor has a
// residency open. A trip that ends in the predicted loop-back then
// changes no buffer state.
func (s *sim) steady(pls []*PlannedLoop) bool {
	for ai, a := range s.accts {
		if pl := pls[ai]; pl != nil {
			if a.buf.cur != pl || !a.buf.replaying {
				return false
			}
		} else if a.buf.cur != nil {
			return false
		}
	}
	return true
}

// foldTrips accounts n counted steady trips of tripOps ops each: a
// streaming account gets n buffered iterations of its loop, an
// unplanned one n loop-back redirects. The shared counts took the
// trips' ops as they ran.
func (s *sim) foldTrips(pls []*PlannedLoop, n, tripOps int64) {
	if n == 0 {
		return
	}
	bp := n * int64(s.code.Mach.BranchPenalty)
	for ai, a := range s.accts {
		if pls[ai] == nil {
			a.penalty += bp
			a.stats.BranchPenaltyCycles += bp
			continue
		}
		ls := a.buf.curLS
		ls.Iterations += n
		ls.BufferedIterations += n
		ls.OpsBuffered += n * tripOps
		a.stats.OpsFromBuffer += n * tripOps
	}
}

// sampleTrip reconstructs the PMU sampling clock's firings across one
// (possibly partial) region trip analytically, without leaving the
// fast path: the trip's bundles issued at the contiguous cycles
// [iterBase, iterBase+count), so every scheduled sample cycle in that
// window fires at its exact interpretive position (samples that came
// due during non-issue cycles — call redirects — clamp forward to the
// first issue cycle, exactly as the interpretive `now >= next` compare
// does). Per-trip fetch verdicts are invariant (the buffer state
// machine only transitions at the head), so the per-account attribution
// is bit-identical to the per-bundle hook; the differential PMU test
// pins that. Must run after accountTrip so counter-track points see the
// trip's accounting. Callers pre-check that a sample is due inside the
// trip window (this function has a loop, so the compiler cannot inline
// the common no-sample case away; the guard keeps steady-state replay
// at two loads and a compare per trip).
func (s *sim) sampleTrip(fc *sched.FuncCode, fx *funcCtx, ri int, iterBase int64, count int) {
	if s.pmu == nil || count == 0 {
		return
	}
	r := &fx.df.regions[ri]
	pls := fx.regionPls[ri]
	last := iterBase + int64(count) - 1
	for s.pmu.Next() <= last {
		c := s.pmu.Next()
		if c < iterBase {
			c = iterBase
		}
		idx := c - iterBase
		pc := r.start + int32(idx)
		ops := r.opsUpTo[idx+1] - r.opsUpTo[idx]
		for ai, a := range s.accts {
			s.recordSample(a, fc.F.Name, pls[ai], pc, c, ops, s.fromBuf[ai])
		}
		s.pmu.Fire(c)
	}
}

// flushRegion emits the trip's first count SimIssue events for every
// account with an event sink, stamped with their actual cycles, as one
// batch per account. Must run before any exit-path event (redirect,
// loop exit) so each ring's order matches the interpretive path
// exactly.
func (s *sim) flushRegion(fc *sched.FuncCode, df *decodedFunc, r *region, iterBase int64, count int) {
	if count == 0 {
		return
	}
	start := int(r.start)
	for ai, a := range s.accts {
		if a.ring == nil {
			continue
		}
		aux := int64(0)
		if s.fromBuf[ai] {
			aux = 1
		}
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
}

// runRegion executes trips of region ri until control leaves it,
// returning the bundle to resume the interpretive loop at. Entered at
// the region head; every trip — including the first — starts with the
// full per-account head fetch, so entry, the record→replay transition,
// per-iteration bookkeeping and residency events happen exactly as on
// the interpretive path. Within a trip the fetch verdict is invariant
// (the buffer state machine can only transition at the head), which is
// what lets per-bundle accounting collapse to per-trip sums. The trip's
// bundles issue through issueRun in one call, which returns at the
// first branch or at the region end.
//
// Two shortcuts leave the accounting unchanged. The head fetch runs
// only when some account plans the region or has a residency open:
// otherwise it is a no-op for every account. And once
// every account is steady in a loop region (see steady), a whole trip
// that ends in the predicted loop-back with no PMU sample due changes
// no buffer state, so it is counted instead of accounted. The first
// trip that is not such a trip — a side exit, the loop exit, a fault,
// the cycle limit or a sample — folds the counted trips in and then
// takes the path above, its head fetch deferred past its issue (a
// steady account's head fetch only counts).
func (s *sim) runRegion(f *frame, fx *funcCtx, ri int, sc *scratch) (int, error) {
	df := fx.df
	r := &df.regions[ri]
	fc := f.fc
	pls := fx.regionPls[ri]
	if r.loop && testRegionEnter != nil {
		for _, pl := range pls {
			if pl != nil {
				testRegionEnter(pl)
				break
			}
		}
	}
	start := int(r.start)
	tripOps := r.opsUpTo[len(r.opsUpTo)-1]
	planned := fx.regionPlanned[ri]
	// counted holds the steady trips not yet folded in.
	var counted int64
	steady := false
	for {
		// As on the interpretive path, a run past the cycle limit stops
		// before the fetch, so the head fetch's buffer events stay out.
		if s.now > s.opts.MaxCycles {
			s.foldTrips(pls, counted, tripOps)
			return 0, cycleLimit(fc, start)
		}
		iterBase := s.now
		if r.loop && !steady && !s.rings {
			steady = s.steady(pls)
		}
		if !steady {
			s.headFetch(fc, pls, start, planned)
		}
		end, nullified, err := s.issueRun(f, df, start, int(r.end), sc)
		count := end - start
		if steady {
			if err == nil && end == int(r.end) && len(sc.branches) == 1 {
				ba := sc.branches[0]
				if ba.taken && ba.d.loopBack && int(ba.d.target) == start &&
					(s.pmu == nil || s.pmu.Next() >= iterBase+int64(count)) {
					counted++
					s.shared.issued += tripOps
					s.shared.nullified += nullified
					s.tick(f)
					continue
				}
			}
			s.foldTrips(pls, counted, tripOps)
			counted, steady = 0, false
			s.headFetch(fc, pls, start, planned)
		}
		// The trip fetched bundles [start, end): account them, take
		// their samples and flush their events before any exit-path
		// event, so every ring's order matches the interpretive path.
		// A predicted loop-back (streaming account) resolves to zero
		// penalty and no event inside resolveControl.
		if err != nil {
			s.flushRegion(fc, df, r, iterBase, count)
			return 0, err
		}
		s.accountTrip(r.opsUpTo[count], nullified)
		if s.pmu != nil && s.pmu.Next() < iterBase+int64(count) {
			s.sampleTrip(fc, fx, ri, iterBase, count)
		}
		s.flushRegion(fc, df, r, iterBase, count)
		next := -2
		if len(sc.branches) != 0 {
			next = s.resolveControl(fc, end-1, sc)
		}
		s.tick(f)
		if next == -2 {
			if next = int(df.bundles[end-1].fall); next < 0 {
				return 0, fmt.Errorf("vliw: fell off end of %s", fc.F.Name)
			}
		}
		if !r.loop || next != start {
			return next, nil
		}
		// Loop-back to the region head: next trip (its head fetch does
		// the per-iteration bookkeeping).
	}
}

// headFetch runs every account's fetch of the region head and keeps
// each verdict for the trip's accounting. When some account plans the
// region or has a residency open, accounts fetch as on the
// interpretive path; otherwise the fetch is a no-op for every account,
// so only the verdicts are cleared.
func (s *sim) headFetch(fc *sched.FuncCode, pls []*PlannedLoop, start int, planned bool) {
	if !planned && s.open == 0 {
		clear(s.fromBuf)
		clear(s.lss)
		return
	}
	for ai, a := range s.accts {
		if pls[ai] != nil || a.buf.cur != nil {
			s.fromBuf[ai], s.lss[ai] = a.buf.fetch(pls[ai], fc, start, s, a)
		} else {
			s.fromBuf[ai], s.lss[ai] = false, nil
		}
	}
}
