package vliw

import (
	"fmt"

	"lpbuf/internal/obs"
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

// Section names the loop section the loop buffers.
func (pl *PlannedLoop) Section() Section {
	return Section{Func: pl.Func, Start: pl.StartBundle}
}

// BufferPlan is the compile-time assignment of loops to buffer space.
type BufferPlan struct {
	// Capacity is the buffer size in operations.
	Capacity int
	// Loops lists planned loops.
	Loops []*PlannedLoop
}

// bufferState is the runtime state of one account's loop buffer: which
// loop images are intact, which loop streams and whether it replays.
// A live run drives it fetch by fetch; a fold drives the same
// transitions from the execution's loop-level trace (see fold.go).
// Loops are named by their index in plan.Loops, -1 for none, so the
// per-fetch path indexes slices and never hashes.
type bufferState struct {
	plan *BufferPlan
	// byFunc[func][bundle] = index of the planned loop covering that
	// bundle (-1 for none), built on a live run's first activation of
	// func (loopsFor); the per-fetch path only indexes the slice. A fold
	// names loops by section instead and never builds it.
	byFunc map[string][]int32
	// stats[i] is plan.Loops[i]'s stats record, created on first use.
	stats []*LoopStats
	// intact[i] reports whether plan.Loops[i]'s image is valid.
	intact []bool
	// cur is the loop currently streaming (recording or replaying), -1
	// for none.
	cur int32
	// replaying is true when cur issues from the buffer.
	replaying bool
	// enteredAt is the cycle cur was entered (for residency events).
	enteredAt int64
	// bp is the machine's redirect penalty.
	bp int64
}

func newBufferState(plan *BufferPlan, bp int64) *bufferState {
	bs := &bufferState{plan: plan, byFunc: map[string][]int32{}, cur: -1, bp: bp}
	if plan == nil {
		return bs
	}
	bs.stats = make([]*LoopStats, len(plan.Loops))
	bs.intact = make([]bool, len(plan.Loops))
	return bs
}

// loopsFor returns the per-bundle planned-loop table of one function,
// building it on first use; nil when the function has no planned
// loops.
func (bs *bufferState) loopsFor(fn string) []int32 {
	if m, ok := bs.byFunc[fn]; ok || bs.plan == nil {
		return m
	}
	var m []int32
	for i, pl := range bs.plan.Loops {
		if pl.Func != fn {
			continue
		}
		for len(m) < pl.EndBundle {
			m = append(m, -1)
		}
		for pc := pl.StartBundle; pc < pl.EndBundle; pc++ {
			m[pc] = int32(i)
		}
	}
	bs.byFunc[fn] = m
	return m
}

// loop returns planned loop i (nil for -1).
func (bs *bufferState) loop(i int32) *PlannedLoop {
	if i < 0 {
		return nil
	}
	return bs.plan.Loops[i]
}

// streaming reports whether a loop residency is open.
func (bs *bufferState) streaming() bool { return bs.cur >= 0 }

// lsOf returns (creating on first use) loop i's stats record.
func (bs *bufferState) lsOf(i int32, a *account) *LoopStats {
	ls := bs.stats[i]
	if ls == nil {
		ls = &LoopStats{}
		bs.stats[i] = ls
		a.stats.Loops[bs.plan.Loops[i].Key()] = ls
	}
	return ls
}

// fetch is called once per bundle fetch at bundle pc of function fn,
// at cycle now, with the bundle's planned loop i (already resolved by
// the caller from the loopsFor table; -1 for none). It updates the
// account's buffer state machine and reports whether this bundle
// issues from the buffer, plus the loop's stats record. fn and now
// only stamp events.
func (bs *bufferState) fetch(i int32, fn string, pc int, now int64, a *account) (bool, *LoopStats) {
	if i < 0 {
		if bs.cur >= 0 {
			bs.leave(fn, pc, now, a)
		}
		return false, nil
	}
	pl := bs.plan.Loops[i]
	ls := bs.lsOf(i, a)
	if pc == pl.StartBundle {
		if bs.cur != i {
			if bs.cur >= 0 {
				// Falling directly from one buffered loop into another.
				bs.leave(fn, pc, now, a)
			}
			// Entering the loop: the rec_[cw]loop op is fetched from
			// global memory. It issues in the branch slot alongside the
			// preceding bundle, so it costs a fetch but no extra cycle
			// (which would shift the software-pipelined timing).
			ls.Entries++
			a.stats.RecFetches++
			a.stats.OpsIssued++
			bs.cur = i
			bs.enteredAt = now
			if bs.intact[i] {
				// Hardware table: image already resident; replay at
				// once, no re-recording.
				bs.replaying = true
				if a.ring != nil {
					a.emit(obs.SimEvent{Cycle: now, Kind: obs.SimLoopReplay,
						Func: fn, PC: int32(pc), Loop: pl.Key()})
				}
			} else {
				bs.replaying = false
				ls.Recordings++
				if a.ring != nil {
					a.emit(obs.SimEvent{Cycle: now, Kind: obs.SimLoopRecord,
						Func: fn, PC: int32(pc), Loop: pl.Key()})
				}
				// Recording overwrites overlapping images.
				for j, other := range bs.plan.Loops {
					if int32(j) != i && overlap(pl, other) {
						bs.intact[j] = false
					}
				}
				bs.intact[i] = true // image valid once this pass completes
			}
		} else {
			// Loop-back to the top: after the recording pass the image
			// is in the buffer; replay from now on.
			if !bs.replaying && a.ring != nil {
				a.emit(obs.SimEvent{Cycle: now, Kind: obs.SimLoopReplay,
					Func: fn, PC: int32(pc), Loop: pl.Key()})
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

// replay accounts n more trips of the loop streaming from the buffer,
// each of tripOps ops: a head fetch that only counts a buffered
// iteration, and the trip's ops from the buffer. It is n fetches of
// the head once cur replays, counted instead of fetched.
func (bs *bufferState) replay(n, tripOps int64, a *account) {
	ls := bs.stats[bs.cur]
	ls.Iterations += n
	ls.BufferedIterations += n
	ls.OpsBuffered += n * tripOps
	a.stats.OpsFromBuffer += n * tripOps
}

// takenPenalty returns the redirect penalty for a taken branch with
// the given loop-back flag and resolved target bundle.
func (bs *bufferState) takenPenalty(fn string, pc int, loopBack bool, target int, now int64, a *account) int64 {
	if bs.cur < 0 {
		return bs.bp
	}
	if loopBack && target == bs.plan.Loops[bs.cur].StartBundle {
		// Buffered loop-back: perfectly predicted.
		return 0
	}
	// Any other taken branch leaves the buffer.
	bs.leave(fn, pc, now, a)
	return bs.bp
}

// exitPenalty is charged when a loop-back branch falls through (loop
// exit): counted loops predict the exit; wloops mispredict once.
func (bs *bufferState) exitPenalty(fn string, pc int, loopBack bool, now int64, a *account) int64 {
	if bs.cur < 0 || !loopBack {
		return 0
	}
	wasReplaying := bs.replaying
	counted := bs.plan.Loops[bs.cur].Counted
	bs.leave(fn, pc, now, a)
	if counted {
		return 0
	}
	if wasReplaying {
		return bs.bp
	}
	return 0
}

// leave closes the current loop residency: emits the SimLoopExit
// event (whose Arg carries the entry cycle, so exporters can render
// residency as a time range) and clears the streaming state.
func (bs *bufferState) leave(fn string, pc int, now int64, a *account) {
	if bs.cur >= 0 && a.ring != nil {
		aux := int64(0)
		if bs.replaying {
			aux = 1
		}
		a.emit(obs.SimEvent{Cycle: now, Kind: obs.SimLoopExit,
			Func: fn, PC: int32(pc), Loop: bs.plan.Loops[bs.cur].Key(),
			Arg: bs.enteredAt, Aux: aux})
	}
	bs.cur = -1
	bs.replaying = false
}

// flushResidency closes a loop residency left open at end of run.
func (bs *bufferState) flushResidency(now int64, a *account) {
	if pl := bs.loop(bs.cur); pl != nil {
		bs.leave(pl.Func, pl.EndBundle, now, a)
	}
}

func overlap(a, b *PlannedLoop) bool {
	return a.Offset < b.Offset+b.Ops && b.Offset < a.Offset+a.Ops
}
