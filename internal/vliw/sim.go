// Package vliw is the cycle-level simulator for the modeled 8-wide
// VLIW: in-order bundle issue with a register scoreboard (RAW
// interlocks), exposed operation latencies, taken-branch redirect
// penalties, and a compiler-managed loop buffer with the Table 3
// record/execute semantics. It executes scheduled code (sched.Code)
// and reports the fetch statistics the paper's evaluation is built on.
package vliw

import (
	"fmt"

	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/sched"
)

// Stats aggregates a run.
type Stats struct {
	// Cycles is total execution time.
	Cycles int64
	// StallCycles counts scoreboard interlock stalls (included in
	// Cycles).
	StallCycles int64
	// BranchPenaltyCycles counts redirect penalties (included in
	// Cycles).
	BranchPenaltyCycles int64
	// OpsIssued counts non-nop operations issued (= fetched, since
	// NOPs are compressed away).
	OpsIssued int64
	// OpsFromBuffer counts operations issued out of the loop buffer.
	OpsFromBuffer int64
	// OpsNullified counts issued operations squashed by a false guard.
	OpsNullified int64
	// RecFetches counts implicit rec_[cw]loop operations fetched.
	RecFetches int64
	// Loops holds per-buffered-loop statistics keyed by "func:bundle".
	Loops map[string]*LoopStats
}

// BufferIssueRatio returns the fraction of issued ops served by the
// loop buffer.
func (s *Stats) BufferIssueRatio() float64 {
	if s.OpsIssued == 0 {
		return 0
	}
	return float64(s.OpsFromBuffer) / float64(s.OpsIssued)
}

// LoopStats tracks one buffered loop at runtime.
type LoopStats struct {
	// Entries counts entries into the loop from outside.
	Entries int64
	// Iterations counts total loop iterations executed.
	Iterations int64
	// BufferedIterations counts iterations issued from the buffer.
	BufferedIterations int64
	// OpsBuffered / OpsMemory split the loop's issued operations.
	OpsBuffered int64
	OpsMemory   int64
	// Recordings counts times the loop was (re)recorded.
	Recordings int64
}

// Result of a simulation.
type Result struct {
	Mem   []byte
	Ret   int64
	Stats Stats
	// Profile is this plan's sampled PMU profile (nil unless
	// Options.PMU enabled sampling).
	Profile *pmu.Profile
}

// Options configure a run.
type Options struct {
	// MaxCycles bounds the run (0 = 4e9).
	MaxCycles int64
	// MaxDepth bounds call depth (0 = 256).
	MaxDepth int
	// Obs enables observability: cycle-level events into Obs.Sim's
	// bounded ring (live runs only) and post-run counter folding into
	// Obs.Reg (each live run or fold). Nil (or nil fields) disables each
	// sink; the hot loop then pays only nil checks (see
	// BenchmarkSimObsDisabled).
	Obs *obs.Obs
	// TraceLabel names this run in emitted events (e.g.
	// "g724dec/aggressive@64").
	TraceLabel string
	// NoFastPath forces the interpretive per-bundle path, disabling the
	// region fast path (see region.go). Results, statistics, memory, obs
	// events and PMU samples are bit-identical either way — the
	// differential tests and the oracle's fast-vs-interpretive contract
	// pin that — so this exists only as their reference path.
	NoFastPath bool
	// PMU enables the sampling performance-monitoring unit: a
	// deterministic jittered clock fires on the issue clock and each
	// firing attributes one sample of the run's plan (of every plan
	// folded over an execution) to (func, loop, PC-bucket,
	// buffer-state), yielding Result.Profile. Nil disables
	// sampling entirely — the hot path then pays one nil check per
	// bundle and allocates nothing (pinned by the obs alloc test).
	PMU *pmu.Config
}

// wbEntry models one in-flight write (EQ model: the value lands at
// readyAt; until then reads see the old contents). Entries live in the
// frame's writeback wheel, indexed by readyAt modulo the wheel size:
// because the wheel is strictly larger than the longest latency, two
// in-flight writes share a slot only when they land on the same cycle,
// and slot order is issue order — so a later-landing earlier write
// overwrites a sooner-landing later one, exactly as exposed writeback
// ports behave.
type wbEntry struct {
	val     int64
	readyAt int64
	reg     int32
	pred    bool
}

// wheelStride bounds the writes one wheel slot holds inline: two
// entries (a cmpp's pair of predicate destinations) for each of the
// machine's eight issue slots. Writes past the stride — several
// bundles' long- and short-latency results piling onto one landing
// cycle — overflow into the frame's spill slice, which stays empty in
// practice.
const wheelStride = 16

// wheelSlots is the writeback wheel's fixed slot count. It must be a
// power of two strictly greater than every modeled latency (Run
// enforces this), so two in-flight writes share a slot only when they
// land on the same cycle. A compile-time constant so the hot write
// path masks with a constant and indexes fixed arrays with provable
// bounds.
const (
	wheelSlots = 16
	wheelMask  = wheelSlots - 1
)

type frame struct {
	fc    *sched.FuncCode
	regs  []int64
	preds []bool
	// fast holds the current bundle's latency-1 results — the bulk of
	// all writes. They land unconditionally at the next tick, after the
	// wheel cohort (whose entries issued in earlier cycles), so the
	// write path is a plain append-to-array with no slot arithmetic.
	fast  [wheelStride]wbEntry
	nFast int32
	// wheel is the writeback pipeline for multi-cycle results, a flat
	// pointer-free fixed array of wheelSlots slots by wheelStride
	// entries: slot t&wheelMask holds the writes landing at cycle t
	// (wcount of them, in issue order). The clock tick drains the
	// current slot, so reads are plain array loads with no
	// pending-queue probe, and writes are constant-masked fixed-array
	// stores — no slice headers, no GC write barriers, no bounds checks
	// the prover can't discharge. While the frame is suspended across a
	// call its slots go stale; drainDue catches the frame up on return.
	wheel  [wheelSlots * wheelStride]wbEntry
	wcount [wheelSlots]int32
	spill  []wbEntry
}

// account is one buffer plan's accounting context: its buffer state
// machine, statistics, redirect penalty, event sink and PMU profile. A
// live run keeps one as it executes; a fold keeps one as it replays an
// execution's trace. The architectural execution — registers, memory,
// control flow, guard outcomes, the issue clock — is independent of
// buffer plans: a plan affects only fetch accounting, which bundles
// issue from the buffer and which redirects are predicted away.
type account struct {
	stats Stats
	// penalty accumulates this plan's redirect bubbles. They add to the
	// reported cycle count but never shift writebacks (which continue
	// through fetch bubbles in a real pipeline), which is what lets one
	// plan-free execution serve every plan.
	penalty int64
	buf     *bufferState
	// ring is the cycle-level event sink (nil when disabled, and always
	// in a fold); label names the run in emitted events.
	ring  *obs.SimTrace
	label string
	// prof accumulates this plan's PMU samples (nil when sampling is
	// off).
	prof *pmu.Profile
}

// newAccount starts the accounting of plan on code's machine; sampled
// gives it a PMU profile.
func newAccount(code *sched.Code, plan *BufferPlan, label string, sampled bool) *account {
	a := &account{buf: newBufferState(plan, int64(code.Mach.BranchPenalty)), label: label}
	a.stats.Loops = map[string]*LoopStats{}
	if sampled {
		capacity := 0
		if plan != nil {
			capacity = plan.Capacity
		}
		a.prof = pmu.NewProfile(label, capacity)
	}
	return a
}

// emit stamps ev with the account's run label and emits it. Callers
// check a.ring first, so a run without events builds none.
func (a *account) emit(ev obs.SimEvent) {
	ev.Run = a.label
	a.ring.Emit(ev)
}

// count splits ops issued under one fetch verdict between the buffer
// and memory, for the run and for the fetched loop.
func (a *account) count(fromBuffer bool, ls *LoopStats, ops int64) {
	if fromBuffer {
		a.stats.OpsFromBuffer += ops
		if ls != nil {
			ls.OpsBuffered += ops
		}
	} else if ls != nil {
		ls.OpsMemory += ops
	}
}

// fetchOps runs the fetch of bundle pc of fn at cycle now, in planned
// loop i (-1 for none), and accounts ops issued under its verdict,
// which it returns. fn and now only stamp events.
func (a *account) fetchOps(i int32, fn string, pc int, now, ops int64) bool {
	fromBuffer, ls := false, (*LoopStats)(nil)
	if i >= 0 || a.buf.streaming() {
		fromBuffer, ls = a.buf.fetch(i, fn, pc, now, a)
	}
	a.count(fromBuffer, ls, ops)
	return fromBuffer
}

// charge adds a redirect penalty of p cycles.
func (a *account) charge(p int64) {
	a.penalty += p
	a.stats.BranchPenaltyCycles += p
}

// finish closes the run: the plan-independent counts join the
// account's own, the cycle count takes the plan's redirects, and the
// totals fold into reg (when non-nil).
func (a *account) finish(shared sharedCounts, now int64, reg *obs.Registry) {
	a.stats.OpsIssued += shared.issued
	a.stats.OpsNullified += shared.nullified
	a.charge(shared.penalty)
	a.stats.Cycles = now + a.penalty
	if reg != nil {
		foldStats(reg, &a.stats)
	}
	if a.prof != nil {
		a.prof.Cycles = a.stats.Cycles
		if reg != nil {
			reg.Counter("sim.pmu.samples").Add(a.prof.Total())
			reg.Histogram("sim.pmu.samples_per_run").Observe(a.prof.Total())
		}
	}
}

type sim struct {
	code *sched.Code
	mem  []byte
	// now is the semantic issue clock: exactly one bundle per tick, so
	// the EQ-model writeback schedule is position-independent.
	now  int64
	opts Options
	// depth is the call depth of the executing activation.
	depth int
	// evScratch backs the region runner's batched SimIssue emission.
	evScratch []obs.SimEvent
	// framePool recycles activation frames per callee.
	framePool map[*sched.FuncCode][]*frame
	// fctx caches the per-function decode image and the live plan's
	// region alignment tables (see funcCtxOf in region.go).
	fctx map[*sched.FuncCode]*funcCtx
	// pmu is the sampling clock (nil when sampling is off). Sample
	// cycles are plan-independent, so every plan folded over one
	// execution samples the same cycles.
	pmu *pmu.Clock
	// shared holds the counts every plan makes alike, added to the
	// account's Stats at the end of the run.
	shared sharedCounts
	// Exactly one of acct and rec is set. acct is a live run's
	// accounting; rec records a plan-free execution's loop-level trace
	// (see trace.go).
	acct *account
	rec  *recorder
}

// sharedCounts are the plan-independent parts of every account's Stats:
// the ops bundles issue (an account's rec fetches stay its own), the ops
// nullified, and the redirect penalties paid outside buffered loops —
// calls, returns and taken branches. A plan-free execution keeps every
// taken branch's penalty here; a fold takes back the ones its plan
// predicts (see fold.go).
type sharedCounts struct {
	issued, nullified, penalty int64
}

// newSim prepares one simulation of code: memory initialized from the
// program's globals and the run limits defaulted.
func newSim(code *sched.Code, opts Options) (*sim, error) {
	if w := wheelSize(code.Mach.Latency); w > wheelSlots {
		return nil, fmt.Errorf("vliw: latency table needs a %d-slot writeback wheel (max %d)", w, wheelSlots)
	}
	s := &sim{
		code:      code,
		mem:       make([]byte, code.Prog.MemSize),
		opts:      opts,
		fctx:      map[*sched.FuncCode]*funcCtx{},
		framePool: map[*sched.FuncCode][]*frame{},
	}
	if s.opts.MaxCycles == 0 {
		s.opts.MaxCycles = 4e9
	}
	if s.opts.MaxDepth == 0 {
		s.opts.MaxDepth = 256
	}
	if opts.PMU != nil {
		s.pmu = pmu.NewClock(*opts.PMU)
	}
	for _, g := range code.Prog.Globals {
		copy(s.mem[g.Offset:g.Offset+g.Size], g.Init)
	}
	return s, nil
}

// runEntry executes the program from its entry function.
func (s *sim) runEntry() (int64, error) {
	entry := s.code.Funcs[s.code.Prog.Entry]
	if entry == nil {
		return 0, fmt.Errorf("vliw: no entry function %q", s.code.Prog.Entry)
	}
	return s.run(entry)
}

// Run executes scheduled code from the program entry under one buffer
// plan, accounting every fetch as it issues: the live path, which emits
// the cycle-level events of Options.Obs's ring and is the reference the
// folds are checked against. Runs that want no events are cheaper as
// one plan-free execution with each plan folded over it (Execute,
// Fold), which is how internal/core runs them.
func Run(code *sched.Code, buffers *BufferPlan, opts Options) (*Result, error) {
	s, err := newSim(code, opts)
	if err != nil {
		return nil, err
	}
	a := newAccount(code, buffers, opts.TraceLabel, s.pmu != nil)
	a.ring = opts.Obs.SimRing()
	s.acct = a
	ret, err := s.runEntry()
	if err != nil {
		return nil, err
	}
	a.buf.flushResidency(s.now, a)
	a.finish(s.shared, s.now, opts.Obs.Registry())
	return &Result{Mem: s.mem, Ret: ret, Stats: a.stats, Profile: a.prof}, nil
}

// foldStats accumulates one run's totals into the metrics registry.
// It runs once per simulation, after the hot loop, so enabling metrics
// costs nothing per cycle.
func foldStats(reg *obs.Registry, st *Stats) {
	reg.Counter("sim.runs").Inc()
	reg.Counter("sim.cycles").Add(st.Cycles)
	reg.Counter("sim.stall_cycles").Add(st.StallCycles)
	reg.Counter("sim.branch_penalty_cycles").Add(st.BranchPenaltyCycles)
	reg.Counter("sim.ops_issued").Add(st.OpsIssued)
	reg.Counter("sim.ops_from_buffer").Add(st.OpsFromBuffer)
	reg.Counter("sim.ops_from_memory").Add(st.OpsIssued - st.OpsFromBuffer)
	reg.Counter("sim.ops_nullified").Add(st.OpsNullified)
	reg.Counter("sim.rec_fetches").Add(st.RecFetches)
	for _, ls := range st.Loops {
		reg.Counter("sim.loop.entries").Add(ls.Entries)
		reg.Counter("sim.loop.iterations").Add(ls.Iterations)
		reg.Counter("sim.loop.buffered_iterations").Add(ls.BufferedIterations)
		reg.Counter("sim.loop.buffer_hits").Add(ls.OpsBuffered)
		reg.Counter("sim.loop.buffer_misses").Add(ls.OpsMemory)
		reg.Counter("sim.loop.recordings").Add(ls.Recordings)
	}
	reg.Histogram("sim.cycles_per_run").Observe(st.Cycles)
}

// sample attributes one PMU sample: the sampled issue point maps to
// (func, loop, PC-bucket, buffer-state) and the account's cumulative
// fetch/redirect counters, on top of the plan-independent counts
// shared, become one counter-track point. Shared by the interpretive
// per-bundle hook, the region runner's analytic catch-up (sampleTrip)
// and the fold, so attribution is bit-identical on every path — the
// differential PMU tests pin that. Counter-track values are cumulative
// as of the account's current bookkeeping, which the fast path
// advances per trip rather than per bundle; the attribution samples
// are exact either way, the series is sampled by construction.
func (a *account) sample(fn string, pl *PlannedLoop, pc int32, cycle, ops int64, fromBuffer bool, shared sharedCounts) {
	if a.prof == nil {
		return
	}
	st := pmu.StateMemory
	loopKey, loopLabel := "", ""
	if pl != nil {
		loopKey, loopLabel = pl.Key(), pl.Label
		if fromBuffer {
			st = pmu.StateReplay
		} else {
			st = pmu.StateRecord
		}
	}
	a.prof.Record(fn, loopKey, loopLabel, pc, st, ops)
	issued := a.stats.OpsIssued + shared.issued
	a.prof.Observe(cycle, a.stats.OpsFromBuffer, issued-a.stats.OpsFromBuffer,
		a.stats.BranchPenaltyCycles+shared.penalty)
}

// wheelSize returns the writeback-wheel size for a latency table: the
// smallest power of two strictly greater than every latency, so that
// an in-flight write never shares a slot with a write landing on a
// different cycle.
func wheelSize(lat machine.Latencies) int64 {
	maxLat := 1
	for _, l := range []int{lat.IALU, lat.IMul, lat.IDiv, lat.Load,
		lat.Store, lat.FP, lat.Branch, lat.Pred} {
		if l > maxLat {
			maxLat = l
		}
	}
	w := int64(2)
	for w <= int64(maxLat) {
		w *= 2
	}
	return w
}

func (s *sim) newFrame(fc *sched.FuncCode) *frame {
	f := &frame{
		fc:    fc,
		regs:  make([]int64, fc.F.NumRegs()+1),
		preds: make([]bool, fc.F.NumPreds()+1),
	}
	f.preds[0] = true
	return f
}

// getFrame reuses a pooled activation frame for fc, or allocates one.
// Call-heavy programs re-enter the same callees millions of times; the
// pool turns those per-call frame allocations into a slice pop plus a
// register-file clear.
func (s *sim) getFrame(fc *sched.FuncCode) *frame {
	l := s.framePool[fc]
	if len(l) == 0 {
		return s.newFrame(fc)
	}
	f := l[len(l)-1]
	s.framePool[fc] = l[:len(l)-1]
	clear(f.regs)
	clear(f.preds)
	f.preds[0] = true
	f.nFast = 0
	f.wcount = [wheelSlots]int32{}
	f.spill = f.spill[:0]
	return f
}

func (s *sim) putFrame(f *frame) {
	s.framePool[f.fc] = append(s.framePool[f.fc], f)
}

// land applies one writeback.
func (f *frame) land(e *wbEntry) {
	if e.pred {
		f.preds[e.reg] = e.val != 0
	} else {
		f.regs[e.reg] = e.val
	}
}

// tick advances the clock one cycle and lands the frame's writes due
// at the new time. While a frame executes, every entry in the current
// slot is due exactly now (the wheel outspans the longest latency, and
// drainDue caught the frame up after any suspension), and slot order
// is issue order. Spill entries were issued after their landing slot
// filled — after every inline entry for the same cycle — so landing
// the slot first keeps issue order.
func (s *sim) tick(f *frame) {
	s.now++
	// A spill entry only exists while its landing slot is full, so
	// wcount and nFast together decide whether anything lands this
	// cycle.
	if f.wcount[s.now&wheelMask]|f.nFast != 0 {
		s.tickLand(f)
	}
}

// tickLand is tick's landing half, outlined so the nothing-due fast
// path inlines at every cycle-advance site. Landing order within the
// cycle is issue order: the wheel cohort (issued in earlier cycles)
// first, then its spill overflow, then the previous bundle's
// latency-1 results.
func (s *sim) tickLand(f *frame) {
	slot := s.now & wheelMask
	c := int64(f.wcount[slot])
	if c != 0 {
		base := slot * wheelStride
		for i := int64(0); i < c; i++ {
			f.land(&f.wheel[base+i])
		}
		f.wcount[slot] = 0
	}
	if len(f.spill) != 0 {
		kept := f.spill[:0]
		for i := range f.spill {
			if f.spill[i].readyAt == s.now {
				f.land(&f.spill[i])
			} else {
				kept = append(kept, f.spill[i])
			}
		}
		f.spill = kept
	}
	if n := int64(f.nFast); n != 0 {
		for i := int64(0); i < n; i++ {
			f.land(&f.fast[i])
		}
		f.nFast = 0
	}
}

// drainDue lands every write due by now, in readyAt order, after the
// frame sat suspended through a callee's cycles. All inline entries in
// one slot share a landing cycle (writes still in flight were issued
// within one wheel span of each other), so cohorts land whole, in
// ascending readyAt order, with a slot's spill overflow after its
// inline entries.
func (s *sim) drainDue(f *frame) {
	for {
		best := int64(-1)
		for slot := int64(0); slot < wheelSlots; slot++ {
			if f.wcount[slot] == 0 {
				continue
			}
			if t := f.wheel[slot*wheelStride].readyAt; t <= s.now && (best < 0 || t < best) {
				best = t
			}
		}
		for i := range f.spill {
			if t := f.spill[i].readyAt; t <= s.now && (best < 0 || t < best) {
				best = t
			}
		}
		if f.nFast != 0 {
			if t := f.fast[0].readyAt; t <= s.now && (best < 0 || t < best) {
				best = t
			}
		}
		if best < 0 {
			return
		}
		slot := best & wheelMask
		base := slot * wheelStride
		if c := int64(f.wcount[slot]); c != 0 && f.wheel[base].readyAt == best {
			for i := int64(0); i < c; i++ {
				f.land(&f.wheel[base+i])
			}
			f.wcount[slot] = 0
		}
		if len(f.spill) != 0 {
			kept := f.spill[:0]
			for i := range f.spill {
				if f.spill[i].readyAt == best {
					f.land(&f.spill[i])
				} else {
					kept = append(kept, f.spill[i])
				}
			}
			f.spill = kept
		}
		if n := int64(f.nFast); n != 0 && f.fast[0].readyAt == best {
			for i := int64(0); i < n; i++ {
				f.land(&f.fast[i])
			}
			f.nFast = 0
		}
	}
}

// readReg samples the register file at issue time: in-flight writes
// are invisible until their tick lands them, so this is a plain load.
func (s *sim) readReg(f *frame, r ir.Reg) int64 {
	return f.regs[r]
}

// writeRegFast queues a latency-1 register result — the overwhelmingly
// common case — on the frame's append-only fast list: it lands at the
// next tick, after any wheel or spill cohort due the same cycle (those
// were issued on earlier cycles, so landing order still follows issue
// order). The list holds at most one bundle's writes — width ≤ 8 ops
// produce ≤ 16 entries even when every op defines two predicates, and
// tick drains it every cycle — so the spill fallback only fires on a
// hypothetically wider machine. Call sites dispatch on the decoded
// latency so both this and writeReg stay inside the inlining budget.
func (s *sim) writeRegFast(f *frame, r ir.Reg, v int64) {
	if r == 0 {
		return
	}
	n := f.nFast
	e := wbEntry{val: ir.W32(v), readyAt: s.now + 1, reg: int32(r)}
	if n < wheelStride {
		f.fast[n] = e
		f.nFast = n + 1
		return
	}
	f.spill = append(f.spill, e)
}

// writeReg queues a multi-cycle result into its landing slot on the
// writeback wheel, spilling past a full slot. Latency-1 results take
// writeRegFast instead (the call sites dispatch on d.lat).
func (s *sim) writeReg(f *frame, r ir.Reg, v int64, lat int64) {
	if r == 0 {
		return
	}
	e := wbEntry{val: ir.W32(v), readyAt: s.now + lat, reg: int32(r)}
	slot := e.readyAt & wheelMask
	c := f.wcount[slot]
	if c < wheelStride {
		f.wheel[slot*wheelStride+int64(c)] = e
		f.wcount[slot] = c + 1
		return
	}
	f.spill = append(f.spill, e)
}

func (s *sim) readPred(f *frame, p ir.PredReg) bool {
	return f.preds[p]
}

// writePredFast is writeRegFast for predicate results.
func (s *sim) writePredFast(f *frame, p ir.PredReg, v bool) {
	if p == 0 {
		return
	}
	var iv int64
	if v {
		iv = 1
	}
	n := f.nFast
	e := wbEntry{val: iv, readyAt: s.now + 1, reg: int32(p), pred: true}
	if n < wheelStride {
		f.fast[n] = e
		f.nFast = n + 1
		return
	}
	f.spill = append(f.spill, e)
}

// writePred is writeReg for multi-cycle predicate results.
func (s *sim) writePred(f *frame, p ir.PredReg, v bool, lat int64) {
	if p == 0 {
		return
	}
	var iv int64
	if v {
		iv = 1
	}
	e := wbEntry{val: iv, readyAt: s.now + lat, reg: int32(p), pred: true}
	slot := e.readyAt & wheelMask
	c := f.wcount[slot]
	if c < wheelStride {
		f.wheel[slot*wheelStride+int64(c)] = e
		f.wcount[slot] = c + 1
		return
	}
	f.spill = append(f.spill, e)
}

// run executes one function invocation (recursively via Go for calls).
func (s *sim) run(fc *sched.FuncCode) (int64, error) {
	f := s.getFrame(fc)
	ret, err := s.exec(f, 0)
	if err == nil {
		s.putFrame(f)
	}
	return ret, err
}

// branchAction and storeAction defer control-flow and memory effects
// to end-of-cycle commit. Plain values (no closures) so the exec
// scratch buffers stay allocation-free in steady state.
type branchAction struct {
	d     *dop
	taken bool
}

type storeAction struct {
	opc  ir.Opcode
	addr int64
	val  int64
}

// scratch holds one activation's issue state, reused across cycles;
// a call's activation gets its own. branches and stores are the
// current bundle's deferred effects. retired/retVal and callNext
// report a return or a call in the bundle (only the interpretive path
// issues those, and resets them before each bundle).
type scratch struct {
	branches []branchAction
	stores   []storeAction
	retired  bool
	retVal   int64
	callNext int
}

// exec is the interpretive path: it runs from bundle pc until return,
// one bundle at a time, handing each region head it reaches to the
// region runner (see region.go).
func (s *sim) exec(f *frame, pc int) (int64, error) {
	if s.depth > s.opts.MaxDepth {
		return 0, fmt.Errorf("vliw: call depth exceeded in %s", f.fc.F.Name)
	}
	fc := f.fc
	// Per-activation hoists: the pre-decoded image and the plan's
	// planned-loop table are resolved once here, so the per-cycle path
	// below indexes slices instead of probing string-keyed maps.
	fx := s.funcCtxOf(fc)
	df := fx.df
	maxC := s.opts.MaxCycles
	// prev is the bundle this activation fetched before pc (-1 at
	// function entry): a loop section's head fetched from outside the
	// section is an entry into its loop.
	prev := -1
	var sc scratch
	for {
		if s.now > maxC {
			return 0, cycleLimit(fc, pc)
		}
		if pc < 0 || pc >= len(df.bundles) {
			return 0, fmt.Errorf("vliw: pc %d out of range in %s", pc, fc.F.Name)
		}

		// Region fast path: at the head of a replayable region — a
		// resident loop or a straight-line run — whole trips execute
		// through the pre-decoded region runner (see region.go) with
		// per-trip batched accounting, provided the plan aligns with the
		// region. The runner does the per-trip head fetch itself, so all
		// buffer-state transitions (entry, record→replay, exit) happen
		// exactly as interpretively.
		if !s.opts.NoFastPath && len(df.regionHead) > 0 {
			if ri := df.regionHead[pc]; ri >= 0 && fx.regionUse[ri] {
				next, last, err := s.runRegion(f, fx, int(ri), &sc, prev)
				if err != nil {
					return 0, err
				}
				prev, pc = last, next
				continue
			}
		}

		db := &df.bundles[pc]
		nOps := int64(len(db.ops))
		// PMU sampling: the clock is compared against the issue cycle
		// once per bundle (sampling off costs exactly this nil check).
		// The region fast path above reconstructs the same firings
		// analytically per trip (see sampleTrip), so both paths sample
		// identical cycles.
		sample := s.pmu != nil && s.now >= s.pmu.Next()
		// The issued ops are the same under every plan. A plan-free
		// execution records the fetch if it touches a loop section;
		// a live run's fetch bookkeeping — buffer state machine, issue
		// event, buffer split, sample — is a no-op outside planned
		// loops with no residency open, so it runs only where the plan
		// covers the bundle, a residency is open, events are on or a
		// sample is due.
		s.shared.issued += nOps
		if s.rec != nil {
			sec := int32(-1)
			if df.loopOf != nil && df.loopOf[pc] >= 0 {
				sec = fx.secBase + df.loopOf[pc]
				s.rec.fetch(sec, pc, prev, nOps)
			} else if s.rec.active {
				s.rec.outside()
			}
			if sample {
				s.rec.sample(fc, sec, int32(pc), s.now, nOps, s.shared)
			}
		} else if a := s.acct; sample || a.ring != nil || a.buf.streaming() ||
			(pc < len(fx.tab) && fx.tab[pc] >= 0) {
			s.fetchBundle(fc, fx, pc, nOps, sample)
		}
		if sample {
			s.pmu.Fire(s.now)
		}

		sc.retired, sc.callNext = false, -1
		_, nullified, err := s.issueRun(f, df, pc, pc+1, &sc)
		if err != nil {
			return 0, err
		}
		s.shared.nullified += nullified
		if sc.retired {
			return sc.retVal, nil
		}
		prev = pc
		if sc.callNext >= 0 {
			pc = sc.callNext
			s.tick(f)
			continue
		}
		next := -2
		if len(sc.branches) != 0 {
			next = s.resolveControl(fc, pc, &sc)
		}
		s.tick(f)
		if next == -2 {
			if next = int(db.fall); next < 0 {
				return 0, fmt.Errorf("vliw: fell off end of %s", fc.F.Name)
			}
		}
		pc = next
	}
}

// fetchBundle runs a live run's fetch of bundle pc on the interpretive
// path: its buffer state machine, issue event, buffer statistics and,
// when due, its PMU sample.
func (s *sim) fetchBundle(fc *sched.FuncCode, fx *funcCtx, pc int, nOps int64, sample bool) {
	a := s.acct
	i := int32(-1)
	if pc < len(fx.tab) {
		i = fx.tab[pc]
	}
	fromBuffer := a.fetchOps(i, fc.F.Name, pc, s.now, nOps)
	if a.ring != nil {
		aux := int64(0)
		if fromBuffer {
			aux = 1
		}
		a.emit(obs.SimEvent{Cycle: s.now, Kind: obs.SimIssue,
			Func: fc.F.Name, PC: int32(pc), Arg: nOps, Aux: aux})
	}
	if sample {
		a.sample(fc.F.Name, a.buf.loop(i), int32(pc), s.now, nOps, fromBuffer, s.shared)
	}
}

// issueRun is the one op switch: it issues the bundles from pc on in
// sequence, one per cycle, and returns after the first bundle that
// resolves a branch or after bundle end-1, without advancing the clock
// past that last bundle. Each bundle's ops read their operands at
// issue, queue their results on the writeback wheel and commit their
// stores at the end of the cycle. The interpretive path issues one
// bundle at a time (end = pc+1), calls and returns included; the region
// runner issues a whole trip, so the per-bundle path of a trip makes no
// call. Callers check the cycle limit before their fetch of bundle pc;
// issueRun checks it before each later bundle. It returns the end of
// the bundles it fetched and the number of ops their false guards
// nullified; on an error the last fetched bundle is the faulting one,
// or, at the cycle limit, the one before the bundle it stopped.
func (s *sim) issueRun(f *frame, df *decodedFunc, pc, end int, sc *scratch) (int, int64, error) {
	maxC := s.opts.MaxCycles
	var nullified int64
	var err error
	for ; ; pc++ {
		// EQ model: no interlocks. Reads sample the register file at
		// issue time; the compiler is responsible for timing (the
		// scheduler pads section ends and shadows branches).
		db := &df.bundles[pc]
		sc.branches = sc.branches[:0]
		sc.stores = sc.stores[:0]
		for i := range db.ops {
			d := &db.ops[i]
			guard := true
			if d.Guard != 0 {
				guard = s.readPred(f, d.Guard)
			}
			if !guard && d.Kind != ir.KindCmpP {
				nullified++
				continue
			}
			// A kind whose result may go through the writeback machinery
			// sets v and routed; the routing follows the switch.
			var v int64
			routed := false
			switch d.Kind {
			case ir.KindNop:

			// The specialized ALU kinds are direct writes (see
			// markDirect).
			case ir.KindMovR:
				f.regs[d.Dest] = ir.W32(f.regs[d.A])
			case ir.KindMovI:
				f.regs[d.Dest] = ir.W32(d.Imm)
			case ir.KindAddRR:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] + f.regs[d.B])
			case ir.KindAddRI:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] + d.Imm)
			case ir.KindSubRR:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] - f.regs[d.B])
			case ir.KindSubRI:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] - d.Imm)
			case ir.KindMulRR:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] * f.regs[d.B])
			case ir.KindMulRI:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] * d.Imm)
			case ir.KindAndRR:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] & f.regs[d.B])
			case ir.KindAndRI:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] & d.Imm)
			case ir.KindShlRR:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] << (uint64(f.regs[d.B]) & 31))
			case ir.KindShlRI:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] << (uint64(d.Imm) & 31))
			case ir.KindShrRR:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] >> (uint64(f.regs[d.B]) & 31))
			case ir.KindShrRI:
				f.regs[d.Dest] = ir.W32(f.regs[d.A] >> (uint64(d.Imm) & 31))
			case ir.KindLdW:
				var ok bool
				if v, ok = ir.LoadW(s.mem, f.regs[d.A]+d.Imm); !ok {
					if v, err = s.loadFault(f, d, pc); err != nil {
						return pc + 1, nullified, err
					}
				}
				routed = true
			case ir.KindLdH:
				var ok bool
				if v, ok = ir.LoadH(s.mem, f.regs[d.A]+d.Imm); !ok {
					if v, err = s.loadFault(f, d, pc); err != nil {
						return pc + 1, nullified, err
					}
				}
				routed = true
			case ir.KindLdHU:
				var ok bool
				if v, ok = ir.LoadHU(s.mem, f.regs[d.A]+d.Imm); !ok {
					if v, err = s.loadFault(f, d, pc); err != nil {
						return pc + 1, nullified, err
					}
				}
				routed = true
			case ir.KindLdB:
				var ok bool
				if v, ok = ir.LoadB(s.mem, f.regs[d.A]+d.Imm); !ok {
					if v, err = s.loadFault(f, d, pc); err != nil {
						return pc + 1, nullified, err
					}
				}
				routed = true
			case ir.KindLdBU:
				var ok bool
				if v, ok = ir.LoadBU(s.mem, f.regs[d.A]+d.Imm); !ok {
					if v, err = s.loadFault(f, d, pc); err != nil {
						return pc + 1, nullified, err
					}
				}
				routed = true

			case ir.KindALU:
				a := s.readReg(f, d.A)
				if d.AImm {
					a = d.Imm
				}
				var b int64
				if !d.Unary {
					b = s.readReg(f, d.B)
					if d.BImm {
						b = d.Imm
					}
				}
				v, routed = ir.EvalALU(d.Opc, d.Cmp, a, b), true

			case ir.KindCmpP:
				a, b := s.readReg(f, d.A), s.readReg(f, d.B)
				if d.AImm {
					a = d.Imm
				}
				if d.BImm {
					b = d.Imm
				}
				cond := d.Cmp.Eval(a, b)
				for pi := uint8(0); pi < d.NPD; pi++ {
					pd := d.PD[pi]
					v, w := pd.Type.Update(guard, cond)
					if w {
						if d.lat == 1 {
							s.writePredFast(f, pd.Pred, v)
						} else {
							s.writePred(f, pd.Pred, v, d.lat)
						}
					}
				}

			case ir.KindSel:
				v, routed = s.readReg(f, d.B), true
				if s.readReg(f, d.A) == 0 {
					v = s.readReg(f, d.C)
				}

			case ir.KindStore:
				addr := s.readReg(f, d.A) + d.Imm
				if err := ir.CheckAccess(s.mem, d.Opc, addr); err != nil {
					return pc + 1, nullified, fmt.Errorf("%s in %s pc=%d: %v", d.op, f.fc.F.Name, pc, err)
				}
				sc.stores = append(sc.stores, storeAction{opc: d.Opc, addr: addr, val: s.readReg(f, d.B)})

			case ir.KindBr:
				a, b := s.readReg(f, d.A), s.readReg(f, d.B)
				if d.AImm {
					a = d.Imm
				}
				if d.BImm {
					b = d.Imm
				}
				if d.Cmp.Eval(a, b) {
					sc.branches = append(sc.branches, branchAction{d: d, taken: true})
				} else if d.loopBack {
					sc.branches = append(sc.branches, branchAction{d: d, taken: false})
				}

			case ir.KindJump:
				sc.branches = append(sc.branches, branchAction{d: d, taken: true})

			case ir.KindBrCLoop:
				c := ir.W32(s.readReg(f, d.A) - 1)
				v, routed = c, true
				sc.branches = append(sc.branches, branchAction{d: d, taken: c > 0})

			case ir.KindCall:
				rv, next, err := s.execCall(f, d, pc, df)
				if err != nil {
					return pc + 1, nullified, err
				}
				if len(d.op.Dest) > 0 {
					s.writeRegFast(f, d.Dest, rv)
				}
				sc.callNext = next

			case ir.KindRet:
				sc.retVal = s.readReg(f, d.A)
				sc.retired = true

			default:
				return pc + 1, nullified, fmt.Errorf("vliw: unhandled op %s", d.op)
			}
			if routed {
				// A result that is not direct lands through the
				// writeback machinery.
				if d.direct {
					f.regs[d.Dest] = v
				} else if d.lat == 1 {
					s.writeRegFast(f, d.Dest, v)
				} else {
					s.writeReg(f, d.Dest, v, d.lat)
				}
			}
		}
		for _, st := range sc.stores {
			// Bounds were checked at issue.
			_ = ir.Store(s.mem, st.opc, st.addr, st.val)
		}
		if len(sc.branches) != 0 || pc+1 == end {
			return pc + 1, nullified, nil
		}
		// Linear fallthrough inside a region (the builder checked
		// fall == pc+1).
		s.tick(f)
		if s.now > maxC {
			return pc + 1, nullified, cycleLimit(f.fc, pc+1)
		}
	}
}

// loadFault handles a width load whose access fell outside memory at
// bundle pc: speculative loads squash the fault and read 0.
func (s *sim) loadFault(f *frame, d *dop, pc int) (int64, error) {
	_, err := ir.Load(s.mem, d.Opc, f.regs[d.A]+d.Imm)
	if d.Spec {
		return 0, nil
	}
	return 0, fmt.Errorf("%s in %s pc=%d: %v", d.op, f.fc.F.Name, pc, err)
}

func cycleLimit(fc *sched.FuncCode, pc int) error {
	return fmt.Errorf("vliw: cycle limit exceeded in %s (pc %d)", fc.F.Name, pc)
}

// execCall performs one call op: transfers into the callee (recursing
// via Go), charges call/return redirect penalties and returns the
// callee's value plus the bundle to resume at.
func (s *sim) execCall(f *frame, d *dop, pc int, df *decodedFunc) (int64, int, error) {
	if d.callee == nil {
		return 0, 0, fmt.Errorf("vliw: call to unknown %q", d.op.Callee)
	}
	nf := s.getFrame(d.callee)
	for i, parm := range d.callee.F.Params {
		nf.regs[parm] = s.readReg(f, d.op.Src[i])
	}
	s.now++
	bp := int64(s.code.Mach.BranchPenalty)
	s.shared.penalty += bp
	if a := s.acct; a != nil && a.ring != nil {
		a.emit(obs.SimEvent{Cycle: s.now, Kind: obs.SimCall,
			Func: d.op.Callee, PC: int32(pc)})
	}
	s.depth++
	rv, err := s.exec(nf, 0)
	s.depth--
	if err != nil {
		return 0, 0, err
	}
	s.putFrame(nf)
	// The caller's wheel slots went stale while it sat suspended through
	// the callee's cycles; land everything now due before resuming.
	s.drainDue(f)
	s.shared.penalty += bp
	if a := s.acct; a != nil && a.ring != nil {
		a.emit(obs.SimEvent{Cycle: s.now, Kind: obs.SimRet,
			Func: d.op.Callee, PC: int32(pc)})
	}
	// Resume after the call bundle.
	next := int(df.bundles[pc].fall)
	if next < 0 {
		return 0, 0, fmt.Errorf("vliw: call at function end without fallthrough")
	}
	return rv, next, nil
}

// resolveControl applies end-of-cycle control transfer: the first
// taken branch in slot order wins (the schedule guarantees at most one
// is truly taken); untaken loop-backs charge their exit penalty on the
// way. Returns the winning target bundle, or -2 for fallthrough.
// Branch decisions are architectural (identical under every plan);
// penalties and buffer-state transitions are the plan's — a plan that
// keeps the loop resident predicts its loop-back for free while an
// unplanned one pays the redirect, on the same control transfer. A
// plan-free execution charges every taken branch and, while loops are
// active, records the branch for the folds. A live run with no
// residency open and no events pays a taken branch as every plan does.
// Shared by the interpretive loop and the region runner's exit path so
// both charge bit-identical penalties and emit identical redirects.
func (s *sim) resolveControl(fc *sched.FuncCode, pc int, sc *scratch) int {
	next := -2
	a := s.acct
	for _, ba := range sc.branches {
		if !ba.taken {
			// Untaken loop-back: loop exit.
			if a == nil {
				s.rec.exit()
			} else if a.buf.streaming() {
				s.redirect(fc, pc, a.buf.exitPenalty(fc.F.Name, pc, ba.d.loopBack, s.now, a))
			}
			continue
		}
		next = int(ba.d.target)
		if a == nil {
			s.shared.penalty += int64(s.code.Mach.BranchPenalty)
			s.rec.taken(ba.d.loopBack, next)
			break
		}
		if !a.buf.streaming() && a.ring == nil {
			s.shared.penalty += int64(s.code.Mach.BranchPenalty)
			break
		}
		s.redirect(fc, pc, a.buf.takenPenalty(fc.F.Name, pc, ba.d.loopBack, next, s.now, a))
		break
	}
	return next
}

// redirect charges a live run's redirect penalty p at bundle pc and
// emits its event.
func (s *sim) redirect(fc *sched.FuncCode, pc int, p int64) {
	a := s.acct
	a.charge(p)
	if p > 0 && a.ring != nil {
		a.emit(obs.SimEvent{Cycle: s.now, Kind: obs.SimRedirect,
			Func: fc.F.Name, PC: int32(pc), Arg: p})
	}
}
