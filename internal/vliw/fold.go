package vliw

import "fmt"

// Fold accounts plan over the execution's trace and returns the
// plan's Result: exactly the Stats, per-loop stats and PMU attribution
// a live run of the plan reports (the oracle's fold-vs-live contract
// pins that). label names the run in its PMU profile. Every planned
// loop must be one of the schedule's loop sections, the shape
// internal/loopbuffer emits and verify.Plan requires; Fold rejects any
// other plan with an error (a live Run accepts it). A nil plan buffers
// nothing.
func (x *Execution) Fold(plan *BufferPlan, label string) (*Result, error) {
	idx, err := x.sectionPlan(plan)
	if err != nil {
		return nil, err
	}
	a := newAccount(x.code, plan, label, x.sampled)
	bp := a.buf.bp
	// fromBuf is the verdict of the latest loop-section fetch: the
	// verdict a sample inside that section takes.
	fromBuf := false
	for rd := (traceReader{b: x.trace}); rd.more(); {
		switch k := rd.kind(); k {
		case evFetch:
			sec, off, ops := rd.int(), rd.int(), rd.int()
			fromBuf = a.fetchOps(idx[sec], "", int(x.secs[sec].start)+int(off), 0, ops)
		case evTrips:
			sec, n := rd.int(), rd.int()
			a.trips(idx[sec], &x.secs[sec].loopSection, n)
		case evTaken, evTakenLoopBack:
			// The execution charged the redirect; a residency may
			// predict it away.
			target := int(rd.int())
			if a.buf.streaming() {
				a.charge(a.buf.takenPenalty("", 0, k == evTakenLoopBack, target, 0, a) - bp)
			}
		case evExit:
			if a.buf.streaming() {
				a.charge(a.buf.exitPenalty("", 0, true, 0, a))
			}
		case evOutside:
			if a.buf.streaming() {
				a.buf.leave("", 0, 0, a)
			}
		case evSample:
			sm := &x.samples[rd.int()]
			var pl *PlannedLoop
			fb := false
			if sm.sec >= 0 {
				pl, fb = a.buf.loop(idx[sm.sec]), fromBuf
			}
			a.sample(sm.fn, pl, sm.pc, sm.cycle, sm.ops, fb, sm.shared)
		}
	}
	a.finish(x.shared, x.now, x.reg)
	return &Result{Mem: x.Mem, Ret: x.Ret, Stats: a.stats, Profile: a.prof}, nil
}

// trips folds n whole trips of loop section ls, planned as loop i (-1
// when the plan leaves it out). Each trip is a head fetch, the section's ops
// and the taken loop-back to the head, which the execution charged.
// The state machine takes the trips one by one until they can no
// longer change it: an unplanned section with no residency open, or
// the planned loop replaying. The remaining trips are then counted.
func (a *account) trips(i int32, ls *loopSection, n int64) {
	start := int(ls.start)
	for ; n > 0; n-- {
		if i < 0 && !a.buf.streaming() {
			// Every further trip is a no-op fetch and a charged redirect.
			return
		}
		if i >= 0 && a.buf.cur == i && a.buf.replaying {
			break
		}
		a.fetchOps(i, "", start, 0, ls.tripOps)
		if a.buf.streaming() {
			a.charge(a.buf.takenPenalty("", start, true, start, 0, a) - a.buf.bp)
		}
	}
	if n == 0 {
		return
	}
	// Loop i streams from the buffer: n buffered iterations, each
	// loop-back predicted.
	a.buf.replay(n, ls.tripOps, a)
	a.charge(-n * a.buf.bp)
}

// sectionPlan maps each of the execution's loop sections to the index
// of the plan's loop for it (-1 when the plan leaves the section out),
// rejecting plans whose loops are not loop sections of the schedule.
func (x *Execution) sectionPlan(plan *BufferPlan) ([]int32, error) {
	idx := make([]int32, len(x.secs))
	for i := range idx {
		idx[i] = -1
	}
	if plan == nil {
		return idx, nil
	}
	for i, pl := range plan.Loops {
		fc := x.code.Funcs[pl.Func]
		base, ok := x.base[fc]
		if !ok {
			return nil, fmt.Errorf("vliw: planned loop %s: no function %q", pl.Key(), pl.Func)
		}
		df := decodedOf(x.code, fc)
		sec := int32(-1)
		if pl.StartBundle >= 0 && pl.StartBundle < len(df.loopOf) {
			sec = df.loopOf[pl.StartBundle]
		}
		if sec < 0 || int(df.loops[sec].start) != pl.StartBundle || int(df.loops[sec].end) != pl.EndBundle {
			return nil, fmt.Errorf("vliw: planned loop %s [%d,%d) is not a loop section of the schedule",
				pl.Key(), pl.StartBundle, pl.EndBundle)
		}
		if idx[base+sec] >= 0 {
			return nil, fmt.Errorf("vliw: loop section %s planned twice", pl.Key())
		}
		idx[base+sec] = int32(i)
	}
	return idx, nil
}
