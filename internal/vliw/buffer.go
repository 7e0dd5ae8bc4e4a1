package vliw

import (
	"fmt"

	"lpbuf/internal/obs"
	"lpbuf/internal/sched"
)

// PlannedLoop is one loop the compiler scheduled into the loop buffer.
type PlannedLoop struct {
	Func string
	// StartBundle / EndBundle delimit the loop's bundles (the kernel
	// section for pipelined loops). Entry is at StartBundle.
	StartBundle, EndBundle int
	// Offset is the compiler-chosen buffer offset (in operations).
	Offset int
	// Ops is the loop's buffer footprint in operations.
	Ops int
	// Counted marks br.cloop loops (exit predicted); wloops pay a
	// misprediction penalty on exit.
	Counted bool
	// Label names the loop for reports (e.g. "PostFilter:B7").
	Label string
}

// Key identifies the loop in statistics maps.
func (pl *PlannedLoop) Key() string {
	return fmt.Sprintf("%s@%d", pl.Func, pl.StartBundle)
}

// BufferPlan is the compile-time assignment of loops to buffer space.
type BufferPlan struct {
	// Capacity is the buffer size in operations.
	Capacity int
	// Loops lists planned loops.
	Loops []*PlannedLoop
}

// bufferState is the runtime state of one account's loop buffer. Each
// batched account carries its own: buffer contents and residency are
// plan-dependent even though the architectural execution is shared.
type bufferState struct {
	plan *BufferPlan
	// byFunc[func][bundle] = planned loop covering that bundle. The
	// string-keyed lookup is hoisted to once per function activation
	// (loopsFor); the per-fetch path only indexes the slice.
	byFunc map[string][]*PlannedLoop
	// index and stats cache per-loop lookups so the per-fetch hot path
	// never re-derives the loop's string key (Key() formats).
	index map[*PlannedLoop]int
	stats map[*PlannedLoop]*LoopStats
	// intact[i] reports whether plan.Loops[i]'s image is valid.
	intact []bool
	// cur is the loop currently streaming (recording or replaying).
	cur *PlannedLoop
	// curLS is cur's stats record, cached so the steady-state fetch
	// path never touches the stats map.
	curLS *LoopStats
	// replaying is true when cur issues from the buffer.
	replaying bool
	// enteredAt is the cycle cur was entered (for residency events).
	enteredAt int64
}

func newBufferState(plan *BufferPlan) *bufferState {
	bs := &bufferState{plan: plan, byFunc: map[string][]*PlannedLoop{},
		index: map[*PlannedLoop]int{}, stats: map[*PlannedLoop]*LoopStats{}}
	if plan == nil {
		return bs
	}
	bs.intact = make([]bool, len(plan.Loops))
	for i, pl := range plan.Loops {
		bs.index[pl] = i
		m := bs.byFunc[pl.Func]
		for len(m) < pl.EndBundle {
			m = append(m, nil)
		}
		for i := pl.StartBundle; i < pl.EndBundle; i++ {
			m[i] = pl
		}
		bs.byFunc[pl.Func] = m
	}
	return bs
}

// loopsFor returns the per-bundle planned-loop table of one function.
// Called once per function activation; nil when the function has no
// planned loops.
func (bs *bufferState) loopsFor(fn string) []*PlannedLoop {
	return bs.byFunc[fn]
}

func (bs *bufferState) indexOf(pl *PlannedLoop) int {
	return bs.index[pl]
}

// lsOf returns (creating on first use) the loop's stats record.
func (bs *bufferState) lsOf(pl *PlannedLoop, a *account) *LoopStats {
	ls := bs.stats[pl]
	if ls == nil {
		ls = &LoopStats{}
		bs.stats[pl] = ls
		a.stats.Loops[pl.Key()] = ls
	}
	return ls
}

// fetch is called once per bundle fetch with the bundle's planned loop
// (already resolved by the caller from the loopsFor table). It updates
// the account's buffer state machine and reports whether this bundle
// issues from the buffer, plus the loop's stats record.
func (bs *bufferState) fetch(pl *PlannedLoop, fc *sched.FuncCode, pc int, s *sim, a *account) (bool, *LoopStats) {
	if pl == nil {
		if bs.cur != nil {
			bs.leave(s, a, fc.F.Name, pc)
		}
		return false, nil
	}
	var ls *LoopStats
	if pl == bs.cur {
		ls = bs.curLS
	} else {
		ls = bs.lsOf(pl, a)
	}
	if pc == pl.StartBundle {
		if bs.cur != pl {
			if bs.cur != nil {
				// Falling directly from one buffered loop into another.
				bs.leave(s, a, fc.F.Name, pc)
			}
			// Entering the loop: the rec_[cw]loop op is fetched from
			// global memory. It issues in the branch slot alongside the
			// preceding bundle, so it costs a fetch but no extra cycle
			// (which would shift the software-pipelined timing).
			ls.Entries++
			a.stats.RecFetches++
			a.stats.OpsIssued++
			bs.cur = pl
			s.open++
			bs.curLS = ls
			bs.enteredAt = s.now
			i := bs.indexOf(pl)
			if bs.intact[i] {
				// Hardware table: image already resident; replay at
				// once, no re-recording.
				bs.replaying = true
				if a.ring != nil {
					a.ring.Emit(obs.SimEvent{Cycle: s.now, Kind: obs.SimLoopReplay,
						Run: a.label, Func: fc.F.Name, PC: int32(pc), Loop: pl.Key()})
				}
			} else {
				bs.replaying = false
				ls.Recordings++
				if a.ring != nil {
					a.ring.Emit(obs.SimEvent{Cycle: s.now, Kind: obs.SimLoopRecord,
						Run: a.label, Func: fc.F.Name, PC: int32(pc), Loop: pl.Key()})
				}
				// Recording overwrites overlapping images.
				for j, other := range bs.plan.Loops {
					if j == i {
						continue
					}
					if overlap(pl, other) {
						bs.intact[j] = false
					}
				}
				bs.intact[i] = true // image valid once this pass completes
			}
		} else {
			// Loop-back to the top: after the recording pass the image
			// is in the buffer; replay from now on.
			if !bs.replaying && a.ring != nil {
				a.ring.Emit(obs.SimEvent{Cycle: s.now, Kind: obs.SimLoopReplay,
					Run: a.label, Func: fc.F.Name, PC: int32(pc), Loop: pl.Key()})
			}
			bs.replaying = true
		}
		ls.Iterations++
		if bs.replaying {
			ls.BufferedIterations++
		}
	}
	return bs.replaying, ls
}

// takenPenalty returns the redirect penalty for a taken branch with
// the given loop-back flag and resolved target bundle.
func (bs *bufferState) takenPenalty(fc *sched.FuncCode, pc int, loopBack bool, target int, s *sim, a *account) int64 {
	if bs.cur != nil && loopBack && target == bs.cur.StartBundle {
		// Buffered loop-back: perfectly predicted.
		return 0
	}
	if bs.cur != nil {
		// Any other taken branch leaves the buffer.
		bs.leave(s, a, fc.F.Name, pc)
	}
	return int64(s.code.Mach.BranchPenalty)
}

// exitPenalty is charged when a loop-back branch falls through (loop
// exit): counted loops predict the exit; wloops mispredict once.
func (bs *bufferState) exitPenalty(fc *sched.FuncCode, pc int, loopBack bool, s *sim, a *account) int64 {
	if bs.cur == nil || !loopBack {
		return 0
	}
	wasReplaying := bs.replaying
	counted := bs.cur.Counted
	bs.leave(s, a, fc.F.Name, pc)
	if counted {
		return 0
	}
	if wasReplaying {
		return int64(s.code.Mach.BranchPenalty)
	}
	return 0
}

// leave closes the current loop residency: emits the SimLoopExit
// event (whose Arg carries the entry cycle, so exporters can render
// residency as a time range) and clears the streaming state.
func (bs *bufferState) leave(s *sim, a *account, fn string, pc int) {
	if bs.cur != nil && a.ring != nil {
		aux := int64(0)
		if bs.replaying {
			aux = 1
		}
		a.ring.Emit(obs.SimEvent{Cycle: s.now, Kind: obs.SimLoopExit,
			Run: a.label, Func: fn, PC: int32(pc), Loop: bs.cur.Key(),
			Arg: bs.enteredAt, Aux: aux})
	}
	if bs.cur != nil {
		s.open--
	}
	bs.cur = nil
	bs.curLS = nil
	bs.replaying = false
}

// flushResidency closes a loop residency left open at end of run.
func (bs *bufferState) flushResidency(s *sim, a *account) {
	if bs.cur != nil {
		bs.leave(s, a, bs.cur.Func, bs.cur.EndBundle)
	}
}

func overlap(a, b *PlannedLoop) bool {
	return a.Offset < b.Offset+b.Ops && b.Offset < a.Offset+a.Ops
}
