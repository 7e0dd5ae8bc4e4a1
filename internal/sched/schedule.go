package sched

import (
	"fmt"

	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
	"lpbuf/internal/obs"
)

// Options control scheduling.
type Options struct {
	// EnableModulo turns on software pipelining of counted loops.
	EnableModulo bool
	// Backend selects the modulo-scheduler backend for pipelined
	// kernels; nil uses the heuristic IMS backend (ModuloSchedule).
	Backend ModuloScheduler
	// Span, when non-nil, parents one observability span per scheduled
	// function (IR ops in, bundles/ops/kernels out, wall time).
	Span *obs.Span
}

// Schedule compiles a program into VLIW bundles. NOTE: when modulo
// scheduling pipelines a loop, the loop's trip counter initialization
// is rewritten (kernel runs trips-stages+1 times), so the program must
// be a clone dedicated to this schedule.
func Schedule(prog *ir.Program, m *machine.Desc, opts Options) (*Code, error) {
	code := &Code{Prog: prog, Funcs: map[string]*FuncCode{}, Mach: m}
	for _, name := range prog.Order {
		sp := opts.Span.Child("sched." + name)
		if opts.Span != nil {
			sp.SetInt("ir_ops", prog.Funcs[name].OpCount())
		}
		fc, err := scheduleFunc(prog, prog.Funcs[name], m, opts)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("scheduling %s: %w", name, err)
		}
		code.Funcs[name] = fc
		if opts.Span != nil {
			sp.SetInt("bundles", len(fc.Bundles))
			sp.SetInt("sched_ops", fc.OpCount())
			kernels := 0
			for _, sec := range fc.Sections {
				if sec.Kind == KindKernel {
					kernels++
				}
			}
			sp.SetInt("kernels", kernels)
		}
		sp.End()
	}
	if err := code.Validate(); err != nil {
		return nil, err
	}
	return code, nil
}

func scheduleFunc(prog *ir.Program, f *ir.Func, m *machine.Desc, opts Options) (*FuncCode, error) {
	alias := AnalyzeAlias(prog, f)
	fc := &FuncCode{F: f, Start: map[ir.BlockID]int{}, fallTo: map[int]int{}}

	// Ensure the entry block is laid out first.
	blocks := make([]*ir.Block, 0, len(f.Blocks))
	var entry *ir.Block
	for _, b := range f.Blocks {
		if b.ID == f.Entry {
			entry = b
		} else {
			blocks = append(blocks, b)
		}
	}
	if entry == nil {
		return nil, fmt.Errorf("missing entry block")
	}
	blocks = append([]*ir.Block{entry}, blocks...)

	type pendingFall struct {
		bundle int
		target ir.BlockID
	}
	var falls []pendingFall

	for _, b := range blocks {
		sections := scheduleBlock(prog, f, b, m, alias, opts)
		fc.Start[b.ID] = len(fc.Bundles)
		for _, sec := range sections {
			sec.Start = len(fc.Bundles)
			fc.Bundles = append(fc.Bundles, sec.Bundles...)
			fc.Sections = append(fc.Sections, sec)
			// Kernel back edge resolves to its own start.
			if sec.Kind == KindKernel {
				for _, bun := range sec.Bundles {
					for _, so := range bun.Ops {
						if so.Op.Opcode == ir.OpBrCLoop {
							so.TargetBundle = sec.Start
						}
					}
				}
			}
		}
		if len(fc.Bundles) == fc.Start[b.ID] {
			// Never emit zero bundles for a block (branch targets must
			// resolve): pad one empty bundle.
			fc.Bundles = append(fc.Bundles, &Bundle{})
		}
		if b.Fall != 0 {
			falls = append(falls, pendingFall{bundle: len(fc.Bundles) - 1, target: b.Fall})
		} else {
			fc.fallTo[len(fc.Bundles)-1] = -1
		}
	}

	// Resolve fallthroughs and branch targets.
	for _, pf := range falls {
		t, ok := fc.Start[pf.target]
		if !ok {
			return nil, fmt.Errorf("fallthrough to missing block B%d", pf.target)
		}
		fc.fallTo[pf.bundle] = t
	}
	for _, bun := range fc.Bundles {
		for _, so := range bun.Ops {
			if so.Op.IsBranch() && !so.resolved {
				t, ok := fc.Start[so.Op.Target]
				if !ok {
					return nil, fmt.Errorf("branch to missing block B%d", so.Op.Target)
				}
				so.TargetBundle = t
				so.resolved = true
			}
		}
	}
	fc.finalizeFalls()
	return fc, nil
}

// scheduleBlock schedules one IR block into one or more sections.
func scheduleBlock(prog *ir.Program, f *ir.Func, b *ir.Block, m *machine.Desc,
	alias *AliasInfo, opts Options) []*BlockCode {

	if opts.EnableModulo {
		if secs := tryModuloBlock(prog, f, b, m, alias, opts); secs != nil {
			return secs
		}
	}
	// Straight-line (or non-pipelined loop) list scheduling.
	selfLoop := false
	if last := b.LastOp(); last != nil && last.IsBranch() && last.Target == b.ID {
		selfLoop = true
	}
	d := BuildDAG(b.Ops, m, alias, selfLoop)
	placed, length := ListSchedule(d, m)
	bundles := make([]*Bundle, length)
	for i := range bundles {
		bundles[i] = &Bundle{}
	}
	for i, op := range b.Ops {
		so := &SOp{Op: op, Slot: placed[i].slot, TargetBundle: -1}
		if !op.IsBranch() {
			so.TargetBundle = 0
			so.resolved = true
		}
		bundles[placed[i].cycle].Ops = append(bundles[placed[i].cycle].Ops, so)
	}
	return []*BlockCode{{Block: b.ID, Kind: KindStraight, Bundles: bundles}}
}

// loopCounterInit returns the literal move that sets counted loop b's
// trip counter when b can be pipelined: b closes on itself with an
// unguarded br.cloop, its body has no side exit, call, return or
// buffer op, and no op but the br.cloop reads or writes the counter,
// which one move outside the loop sets. Otherwise it returns nil.
func loopCounterInit(f *ir.Func, b *ir.Block) *ir.Op {
	last := b.LastOp()
	if last == nil || last.Opcode != ir.OpBrCLoop || last.Target != b.ID || last.Guard != 0 {
		return nil
	}
	for _, op := range b.Ops[:len(b.Ops)-1] {
		if op.IsBranch() || op.Opcode == ir.OpCall || op.Opcode == ir.OpRet || op.IsBufferOp() {
			return nil // side exits and calls prevent pipelining
		}
	}
	cnt := last.Src[0]
	var init *ir.Op
	for _, ob := range f.Blocks {
		for _, op := range ob.Ops {
			if op == last {
				continue
			}
			for _, s := range op.Src {
				if s == cnt {
					return nil
				}
			}
			for _, d := range op.Dest {
				if d != cnt {
					continue
				}
				if ob == b || init != nil || op.Opcode != ir.OpMov ||
					op.Guard != 0 || !op.HasImm || len(op.Src) != 0 {
					return nil
				}
				init = op
			}
		}
	}
	return init
}

// tryModuloBlock recognizes a pipelinable counted loop and emits
// prologue/kernel/epilogue sections. Returns nil when not applicable.
func tryModuloBlock(prog *ir.Program, f *ir.Func, b *ir.Block, m *machine.Desc,
	alias *AliasInfo, opts Options) []*BlockCode {

	init := loopCounterInit(f, b)
	if init == nil {
		return nil
	}
	last := b.LastOp()
	body := b.Ops[:len(b.Ops)-1]
	trips := init.Imm
	if trips < 2 {
		return nil
	}

	// One DAG serves both schedules: since only the br.cloop touches
	// its counter, the body's DAG is the block's restricted to the body.
	blockDAG := BuildDAG(b.Ops, m, alias, true)
	backend := opts.Backend
	if backend == nil {
		backend = Heuristic()
	}
	ks := backend.ScheduleLoop(blockDAG.withoutLast(), m)
	if ks == nil || int64(ks.Stages) > trips {
		return nil
	}
	// A pipelined schedule must beat the non-pipelined length to be
	// worth the expansion.
	_, listLen := ListSchedule(blockDAG, m)
	if ks.II >= listLen {
		return nil
	}

	// Patch the counter: the kernel runs trips-stages+1 times.
	init.Imm = trips - int64(ks.Stages) + 1

	ii, S := ks.II, ks.Stages
	mkBundles := func(n int) []*Bundle {
		bs := make([]*Bundle, n)
		for i := range bs {
			bs[i] = &Bundle{}
		}
		return bs
	}
	stage := func(i int) int { return ks.Sigma[i] / ii }
	cyc := func(i int) int { return ks.Sigma[i] % ii }

	var sections []*BlockCode
	// Prologue: passes 0..S-2; pass P holds ops with stage <= P.
	if S > 1 {
		pro := &BlockCode{Block: b.ID, Kind: KindPrologue, Bundles: mkBundles((S - 1) * ii)}
		for p := 0; p < S-1; p++ {
			for i, op := range body {
				if stage(i) <= p {
					so := &SOp{Op: op, Slot: ks.Slot[i], TargetBundle: 0, resolved: true}
					pro.Bundles[p*ii+cyc(i)].Ops = append(pro.Bundles[p*ii+cyc(i)].Ops, so)
				}
			}
		}
		sections = append(sections, pro)
	}
	// Kernel: all ops plus the loop-back branch at cycle ii-1.
	ker := &BlockCode{Block: b.ID, Kind: KindKernel, Bundles: mkBundles(ii),
		II: ii, Stages: S, Proven: ks.Proven}
	for i, op := range body {
		so := &SOp{Op: op, Slot: ks.Slot[i], TargetBundle: 0, resolved: true}
		ker.Bundles[cyc(i)].Ops = append(ker.Bundles[cyc(i)].Ops, so)
	}
	ker.Bundles[ii-1].Ops = append(ker.Bundles[ii-1].Ops,
		&SOp{Op: last, Slot: ks.BranchSlot, TargetBundle: 0, resolved: true})
	sections = append(sections, ker)
	// Drain pad: flat time of the last landing write of iteration N-1 is
	// (N-1)*ii + max(sigma+lat); the epilogue ends at flat (N+S-1)*ii.
	// Pad so every write lands before control falls past the loop.
	maxLand := 0
	for i, op := range body {
		if len(op.Dest) == 0 && !op.IsPredDefine() {
			continue
		}
		if v := ks.Sigma[i] + ir.LatencyOf(op, m.Latency); v > maxLand {
			maxLand = v
		}
	}
	pad := maxLand - S*ii
	if pad < 0 {
		pad = 0
	}

	// Epilogue: passes e=0..S-2; pass e holds ops with stage >= e+1.
	if S > 1 {
		epi := &BlockCode{Block: b.ID, Kind: KindEpilogue, Bundles: mkBundles((S-1)*ii + pad)}
		for e := 0; e < S-1; e++ {
			for i, op := range body {
				if stage(i) >= e+1 {
					so := &SOp{Op: op, Slot: ks.Slot[i], TargetBundle: 0, resolved: true}
					epi.Bundles[e*ii+cyc(i)].Ops = append(epi.Bundles[e*ii+cyc(i)].Ops, so)
				}
			}
		}
		sections = append(sections, epi)
	} else if pad > 0 {
		// No epilogue (S == 1): pad after the kernel; the loop-back
		// branch in the kernel's last real bundle skips the pad, the
		// exit path drains through it.
		sections = append(sections, &BlockCode{Block: b.ID, Kind: KindEpilogue,
			Bundles: mkBundles(pad)})
	}
	return sections
}
