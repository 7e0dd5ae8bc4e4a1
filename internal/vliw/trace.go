package vliw

import (
	"encoding/binary"

	"lpbuf/internal/obs"
	"lpbuf/internal/sched"
)

// This file is the plan-free execution. The observation it builds on:
// the simulator's architectural execution — register and memory
// values, control flow, guard outcomes, the one-bundle-per-tick issue
// clock — is independent of the loop-buffer plan. A plan only changes
// *accounting*: which fetches issue from the buffer, which redirects
// are predicted away, which per-loop counters advance. Redirect
// penalties never shift writebacks (they accumulate apart and add to
// Cycles at the end), so every plan's accounting is a function of the
// one execution's control flow through the loop sections.
//
// Execute therefore runs the program once with no plan and records
// that control flow at loop level: entries into loop sections, runs of
// whole trips, partial trips, the branches that end them, the first
// fetch outside every loop section after loop activity, and the PMU
// sample points. The counts every plan makes alike — ops issued and
// nullified, call and taken-branch penalties, cycles — are kept once.
// Fold (fold.go) then accounts any plan whose loops are loop sections
// by driving the buffer state machine over the trace. The trace grows
// with loop visits, not with bundles: a whole trip that ends in the
// loop-back adds nothing but a count.
//
// A run that emits cycle-level events keeps the live path (Run): its
// per-bundle SimIssue events are exactly the per-bundle work the trace
// leaves out.

// The trace is a byte stream: each event is its kind byte followed by
// its operands as unsigned varints, so a typical loop visit — a run of
// whole trips, the last trip, its exit and the next outside fetch —
// takes about a dozen bytes.
type eventKind byte

const (
	// evFetch (sec, off, ops) is one fetch of bundle off of loop section
	// sec — a bundle on the interpretive path, or a region trip's head
	// (off 0) — and the ops issued under that fetch's verdict.
	evFetch eventKind = iota
	// evTrips (sec, n) is n whole trips of loop region sec, each a head
	// fetch, the region's ops and the taken loop-back to the head.
	evTrips
	// evTaken (target) is a taken branch to bundle target, and
	// evTakenLoopBack one flagged as a loop-back.
	evTaken
	evTakenLoopBack
	// evExit is an untaken loop-back: a loop exit.
	evExit
	// evOutside is the first fetch of a bundle outside every loop
	// section after loop activity.
	evOutside
	// evSample (i) is the PMU sample samples[i].
	evSample
)

// traceReader decodes a trace's events in order.
type traceReader struct {
	b []byte
	i int
}

func (r *traceReader) more() bool { return r.i < len(r.b) }

func (r *traceReader) kind() eventKind {
	k := eventKind(r.b[r.i])
	r.i++
	return k
}

func (r *traceReader) int() int64 {
	// Most operands fit one byte.
	if b := r.b[r.i]; b < 0x80 {
		r.i++
		return int64(b)
	}
	v, n := binary.Uvarint(r.b[r.i:])
	r.i += n
	return int64(v)
}

// traceSample is one PMU sample point: where and when it fired and the
// plan-independent counts as of that cycle.
type traceSample struct {
	fn     string
	cycle  int64
	ops    int64
	shared sharedCounts
	// ahead is the ops of the sampled bundle's region trip after it,
	// which shared and the trip's fetch already count.
	ahead int64
	pc    int32
	// sec is the loop section holding the sampled bundle (-1: none).
	sec int32
}

// traceSection is one loop section of the executed program and its
// counts in this execution.
type traceSection struct {
	fn string
	loopSection
	// fetches counts fetches of the section's head; entries those whose
	// previous bundle in the activation lies outside the section.
	fetches, entries int64
}

// recorder builds a plan-free execution's trace.
type recorder struct {
	trace   []byte
	samples []traceSample
	secs    []traceSection
	// base maps a function to the trace id of its first loop section.
	base map[*sched.FuncCode]int32
	// active reports loop-section fetches since the last outside one:
	// only then can a plan have a loop residency open, so only then do
	// branches and outside fetches matter to a fold.
	active bool
}

func newRecorder(code *sched.Code) *recorder {
	r := &recorder{base: map[*sched.FuncCode]int32{}}
	for _, name := range code.Prog.Order {
		fc := code.Funcs[name]
		if fc == nil {
			continue
		}
		r.base[fc] = int32(len(r.secs))
		for _, ls := range decodedOf(code, fc).loops {
			r.secs = append(r.secs, traceSection{fn: name, loopSection: ls})
		}
	}
	return r
}

// enter notes a fetch of loop section sec's head that follows bundle
// prev of the same activation (-1 at function entry).
func (r *recorder) enter(sec int32, prev int) {
	ts := &r.secs[sec]
	if prev >= 0 && (prev < int(ts.start) || prev >= int(ts.end)) {
		ts.entries++
	}
	r.active = true
}

// fetch records the interpretive path's fetch of bundle pc of loop
// section sec, which follows bundle prev and issues ops.
func (r *recorder) fetch(sec int32, pc, prev int, ops int64) {
	if pc == int(r.secs[sec].start) {
		r.enter(sec, prev)
		r.secs[sec].fetches++
	}
	r.active = true
	r.put(evFetch, int64(sec), int64(pc)-int64(r.secs[sec].start), ops)
}

// put appends one event.
func (r *recorder) put(k eventKind, args ...int64) {
	r.trace = append(r.trace, byte(k))
	for _, v := range args {
		r.trace = binary.AppendUvarint(r.trace, uint64(v))
	}
}

// head records a region trip of loop section sec that is not a whole
// trip ending in the loop-back: its head fetch and the ops it issued.
func (r *recorder) head(sec int32, ops int64) {
	r.secs[sec].fetches++
	r.put(evFetch, int64(sec), 0, ops)
}

// trips records n whole trips of loop section sec.
func (r *recorder) trips(sec int32, n int64) {
	if n == 0 {
		return
	}
	r.secs[sec].fetches += n
	r.put(evTrips, int64(sec), n)
}

// outside records a fetch outside every loop section.
func (r *recorder) outside() {
	if r.active {
		r.put(evOutside)
		r.active = false
	}
}

// taken records a taken branch to bundle target.
func (r *recorder) taken(loopBack bool, target int) {
	if !r.active {
		return
	}
	if loopBack {
		r.put(evTakenLoopBack, int64(target))
	} else {
		r.put(evTaken, int64(target))
	}
}

// exit records an untaken loop-back.
func (r *recorder) exit() {
	if r.active {
		r.put(evExit)
	}
}

// sample records a PMU sample at bundle pc of fc (in loop section sec,
// -1 for none) at cycle, of a bundle issuing ops, with ahead ops of its
// trip after it already counted (account.sample).
func (r *recorder) sample(fc *sched.FuncCode, sec, pc int32, cycle, ops int64, shared sharedCounts, ahead int64) {
	r.put(evSample, int64(len(r.samples)))
	r.samples = append(r.samples, traceSample{fn: fc.F.Name, cycle: cycle, ops: ops,
		shared: shared, ahead: ahead, pc: pc, sec: sec})
}

// Execution is one plan-free run of a scheduled program: its
// architectural outcome plus the loop-level trace every buffer plan
// folds over (Fold). It lives as long as its caller keeps it.
type Execution struct {
	// Mem and Ret are the final memory image and return value, shared
	// by every folded Result.
	Mem []byte
	Ret int64

	code    *sched.Code
	reg     *obs.Registry
	sampled bool
	now     int64
	shared  sharedCounts
	trace   []byte
	samples []traceSample
	secs    []traceSection
	base    map[*sched.FuncCode]int32
}

// Execute runs scheduled code once from the program entry with no
// buffer plan and records its loop-level trace. Options.PMU sets the
// sample points every fold attributes; Options.Obs's registry receives
// each fold's totals. A plan-free execution emits no cycle-level
// events: runs that want them go through Run.
func Execute(code *sched.Code, opts Options) (*Execution, error) {
	s, err := newSim(code, opts)
	if err != nil {
		return nil, err
	}
	s.rec = newRecorder(code)
	ret, err := s.runEntry()
	if err != nil {
		return nil, err
	}
	r := s.rec
	return &Execution{Mem: s.mem, Ret: ret, code: code, reg: opts.Obs.Registry(),
		sampled: s.pmu != nil, now: s.now, shared: s.shared, trace: r.trace,
		samples: r.samples, secs: r.secs, base: r.base}, nil
}

// LoopWeight is one loop section's execution counts in the terms of the
// loop's IR block, as the buffer planner weighs loops: Iterations is
// how many times the block ran and Entries how many times control
// entered it from another block.
type LoopWeight struct {
	Iterations, Entries int64
}

// Section names a loop section of a schedule: its function and the
// bundle it starts at.
type Section struct {
	Func  string
	Start int
}

// Weights maps loop sections to their weights.
type Weights map[Section]LoopWeight

// Weights derives every loop section's weight from the execution. A
// self-loop section's block runs once per fetch of the section's head.
// A software-pipelined kernel runs trips-stages+1 times per entry while
// its block runs trips times (the trip count of a pipelined loop is a
// literal), so the block's count adds stages-1 per entry. Entries are
// head fetches whose previous bundle in the activation lies outside the
// section: the IR's edges into the block from other blocks.
func (x *Execution) Weights() Weights {
	w := make(Weights, len(x.secs))
	for i := range x.secs {
		ts := &x.secs[i]
		w[Section{Func: ts.fn, Start: int(ts.start)}] = LoopWeight{
			Iterations: ts.fetches + ts.entries*(ts.stages-1),
			Entries:    ts.entries,
		}
	}
	return w
}
