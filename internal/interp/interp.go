// Package interp is a functional interpreter for the IR. It executes
// programs in CFG form (before or after the control transformations —
// it fully understands guards and predicate defines), produces the
// reference outputs the cycle-level simulator is validated against, and
// optionally gathers execution profiles for the profile-guided passes.
//
// Each Run decodes the program once into a dense image (see decode.go)
// and executes that: blocks by index, branch targets and callees
// resolved, operands as register indices or immediates routed by the
// shared ir.Decode, and every profile event counted in a dense slot
// that is folded into the profile maps at the end of the run.
package interp

import (
	"fmt"

	"lpbuf/internal/ir"
	"lpbuf/internal/profile"
)

// Options configure a run.
type Options struct {
	// Profile, when non-nil, receives execution counts.
	Profile *profile.Profile
	// MaxOps bounds dynamic operations (0 = default 4e9).
	MaxOps int64
	// MaxDepth bounds call depth (0 = default 256).
	MaxDepth int
	// EntryArgs are passed to the entry function's parameters.
	EntryArgs []int64
}

// Result reports a completed run.
type Result struct {
	// Mem is the final data memory.
	Mem []byte
	// Ret is the entry function's return value (0 for void).
	Ret int64
	// Ops is the number of dynamic operations executed (nullified
	// guarded operations count: they issued).
	Ops int64
}

type state struct {
	prog  *ir.Program
	mem   []byte
	ops   int64
	maxOp int64
	depth int
	maxD  int
	// scr[d] is the register-file scratch for call depth d: at any
	// moment exactly one activation lives at each depth, so frames are
	// reused across the run's calls instead of allocated per call. The
	// profile-guided passes interpret every benchmark's full input to
	// collect counts, which makes these per-call allocations the
	// compile pipeline's hottest.
	scr []frameScratch
	// argbuf carries call arguments from call site to callee entry.
	// The callee copies them into its registers before executing any
	// op, so one buffer serves all nesting depths.
	argbuf []int64
	// funcs holds the run's decoded functions by name (nil for a name
	// the program does not define); order lists them as first
	// referenced.
	funcs map[string]*fn
	order []*fn
}

type frameScratch struct {
	regs  []int64
	preds []bool
}

// frame returns zeroed register files for one activation at depth d,
// reusing the depth's previous backing arrays when large enough.
func (st *state) frame(d int, nRegs, nPreds int) ([]int64, []bool) {
	for d >= len(st.scr) {
		st.scr = append(st.scr, frameScratch{})
	}
	fs := &st.scr[d]
	if cap(fs.regs) < nRegs {
		fs.regs = make([]int64, nRegs)
	} else {
		fs.regs = fs.regs[:nRegs]
		clear(fs.regs)
	}
	if cap(fs.preds) < nPreds {
		fs.preds = make([]bool, nPreds)
	} else {
		fs.preds = fs.preds[:nPreds]
		clear(fs.preds)
	}
	return fs.regs, fs.preds
}

// Run executes the program from its entry function.
func Run(prog *ir.Program, opts Options) (*Result, error) {
	if prog.Funcs[prog.Entry] == nil {
		return nil, fmt.Errorf("interp: no entry function %q", prog.Entry)
	}
	st := &state{
		prog:  prog,
		mem:   make([]byte, prog.MemSize),
		maxOp: opts.MaxOps,
		maxD:  opts.MaxDepth,
		funcs: map[string]*fn{},
	}
	if st.maxOp == 0 {
		st.maxOp = 4e9
	}
	if st.maxD == 0 {
		st.maxD = 256
	}
	for _, g := range prog.Globals {
		copy(st.mem[g.Offset:g.Offset+g.Size], g.Init)
	}
	ret, err := st.call(st.funcFor(prog.Entry), opts.EntryArgs)
	if err != nil {
		return nil, err
	}
	if opts.Profile != nil {
		st.fold(opts.Profile)
	}
	return &Result{Mem: st.mem, Ret: ret, Ops: st.ops}, nil
}

func (st *state) call(fn *fn, args []int64) (int64, error) {
	f := fn.f
	if st.depth >= st.maxD {
		return 0, fmt.Errorf("interp: call depth limit in %s", f.Name)
	}
	st.depth++
	defer func() { st.depth-- }()

	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	if fn.blocks == nil {
		st.decode(fn)
	}
	regs, preds := st.frame(st.depth, fn.nRegs, fn.nPreds)
	preds[0] = true
	for i, p := range f.Params {
		regs[p] = ir.W32(args[i])
	}
	fn.calls++
	ctr := fn.ctr
	mem := st.mem

	cur := fn.entry
	for {
		b := &fn.blocks[cur]
		if b.missing {
			return 0, fmt.Errorf("interp: %s: missing block B%d", f.Name, b.id)
		}
		ctr[cur]++
		ops := b.ops
		// The block's ops are counted on entry, as many as the op limit
		// leaves; an early exit or a call gives back the ones not yet
		// run. Reaching stop short of the block end is the limit.
		n := len(ops)
		stop := n
		if left := st.maxOp - st.ops; int64(n) > left {
			stop = int(left)
		}
		st.ops += int64(stop)
		fn.ops += int64(stop)
		next, edge := b.fall, b.fallEdge
		for i := 0; ; i++ {
			var why exit
			i, why = runOps(ops, i, stop, regs, preds, mem, ctr)
			if why == exitEnd {
				if stop < n {
					return 0, fmt.Errorf("interp: op limit exceeded in %s", f.Name)
				}
				break
			}
			d, ref := &ops[i], &b.refs[i]
			switch why {
			case exitTaken:
				unrun := int64(stop - i - 1)
				st.ops -= unrun
				fn.ops -= unrun
				next, edge = fn.succ[d.edge], d.edge
			case exitRet:
				unrun := int64(stop - i - 1)
				st.ops -= unrun
				fn.ops -= unrun
				return regs[d.A], nil
			case exitCall:
				if ref.callee == nil {
					return 0, fmt.Errorf("interp: call to undefined %q", ref.op.Callee)
				}
				src := ref.op.Src
				if cap(st.argbuf) < len(src) {
					st.argbuf = make([]int64, len(src))
				}
				args := st.argbuf[:len(src)]
				for k, r := range src {
					args[k] = regs[r]
				}
				ctr[d.ctr]++
				// The callee's ops count from here: give back this
				// block's unrun ones and count them again after.
				unrun := int64(stop - i - 1)
				st.ops -= unrun
				fn.ops -= unrun
				rv, err := st.call(ref.callee, args)
				if err != nil {
					return 0, err
				}
				if len(ref.op.Dest) > 0 {
					regs[d.Dest] = rv
				}
				stop = n
				if left := st.maxOp - st.ops; int64(n-i-1) > left {
					stop = i + 1 + int(left)
				}
				st.ops += int64(stop - i - 1)
				fn.ops += int64(stop - i - 1)
				continue
			case exitLoadFault:
				// Speculative loads squash the fault and read 0.
				_, err := ir.Load(mem, d.Opc, regs[d.A]+d.Imm)
				if !d.Spec {
					return 0, fmt.Errorf("%s in %s B%d: %v", ref.op, f.Name, b.id, err)
				}
				regs[d.Dest] = 0
				continue
			case exitStoreFault:
				err := ir.CheckAccess(mem, d.Opc, regs[d.A]+d.Imm)
				return 0, fmt.Errorf("%s in %s B%d: %v", ref.op, f.Name, b.id, err)
			default:
				return 0, fmt.Errorf("interp: unhandled op %s in %s", ref.op, f.Name)
			}
			break
		}
		if next < 0 {
			return 0, fmt.Errorf("interp: %s: B%d fell off the end", f.Name, b.id)
		}
		ctr[edge]++
		cur = next
	}
}

// exit says why runOps stopped.
type exit uint8

const (
	// exitEnd: it ran every op up to stop.
	exitEnd exit = iota
	// exitTaken: the op at the returned index transferred control.
	exitTaken
	// exitCall and exitRet: the op is a call or a return whose guard
	// holds.
	exitCall
	exitRet
	// exitLoadFault and exitStoreFault: the op accessed memory out of
	// range. exitInvalid: no kind the interpreter knows.
	exitLoadFault
	exitStoreFault
	exitInvalid
)

// runOps executes ops[i:stop] until one leaves the straight-line run:
// a taken transfer, a call, a return, a fault or an unknown op. It
// returns that op's index and why, or stop and exitEnd. Branch counts
// go to ctr. Calls and errors are the caller's, which keeps this loop
// free of them.
func runOps(ops []op, i, stop int, regs []int64, preds []bool, mem []byte, ctr []int64) (int, exit) {
	for ; i < stop; i++ {
		d := &ops[i]
		switch d.Kind {
		case ir.KindNop, ir.KindRecLoop:

		case ir.KindMovR:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A])
			}
		case ir.KindMovI:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(d.Imm)
			}
		case ir.KindAddRR:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] + regs[d.B])
			}
		case ir.KindAddRI:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] + d.Imm)
			}
		case ir.KindSubRR:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] - regs[d.B])
			}
		case ir.KindSubRI:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] - d.Imm)
			}
		case ir.KindMulRR:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] * regs[d.B])
			}
		case ir.KindMulRI:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] * d.Imm)
			}
		case ir.KindAndRR:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] & regs[d.B])
			}
		case ir.KindAndRI:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] & d.Imm)
			}
		case ir.KindShlRR:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] << (uint64(regs[d.B]) & 31))
			}
		case ir.KindShlRI:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] << (uint64(d.Imm) & 31))
			}
		case ir.KindShrRR:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] >> (uint64(regs[d.B]) & 31))
			}
		case ir.KindShrRI:
			if preds[d.Guard] {
				regs[d.Dest] = ir.W32(regs[d.A] >> (uint64(d.Imm) & 31))
			}
		case ir.KindALU:
			if preds[d.Guard] {
				a := regs[d.A]
				if d.AImm {
					a = d.Imm
				}
				var b int64
				if !d.Unary {
					b = regs[d.B]
					if d.BImm {
						b = d.Imm
					}
				}
				regs[d.Dest] = ir.EvalALU(d.Opc, d.Cmp, a, b)
			}

		case ir.KindCmpP:
			a, b := regs[d.A], regs[d.B]
			if d.AImm {
				a = d.Imm
			}
			if d.BImm {
				b = d.Imm
			}
			guard, cond := preds[d.Guard], d.Cmp.Eval(a, b)
			for k := uint8(0); k < d.NPD; k++ {
				pd := d.PD[k]
				if v, w := pd.Type.Update(guard, cond); w {
					preds[pd.Pred] = v
				}
			}

		case ir.KindSel:
			if preds[d.Guard] {
				if regs[d.A] != 0 {
					regs[d.Dest] = regs[d.B]
				} else {
					regs[d.Dest] = regs[d.C]
				}
			}

		case ir.KindLdW:
			if preds[d.Guard] {
				v, ok := ir.LoadW(mem, regs[d.A]+d.Imm)
				if !ok {
					return i, exitLoadFault
				}
				regs[d.Dest] = v
			}
		case ir.KindLdH:
			if preds[d.Guard] {
				v, ok := ir.LoadH(mem, regs[d.A]+d.Imm)
				if !ok {
					return i, exitLoadFault
				}
				regs[d.Dest] = v
			}
		case ir.KindLdHU:
			if preds[d.Guard] {
				v, ok := ir.LoadHU(mem, regs[d.A]+d.Imm)
				if !ok {
					return i, exitLoadFault
				}
				regs[d.Dest] = v
			}
		case ir.KindLdB:
			if preds[d.Guard] {
				v, ok := ir.LoadB(mem, regs[d.A]+d.Imm)
				if !ok {
					return i, exitLoadFault
				}
				regs[d.Dest] = v
			}
		case ir.KindLdBU:
			if preds[d.Guard] {
				v, ok := ir.LoadBU(mem, regs[d.A]+d.Imm)
				if !ok {
					return i, exitLoadFault
				}
				regs[d.Dest] = v
			}

		case ir.KindStore:
			if preds[d.Guard] {
				if ir.Store(mem, d.Opc, regs[d.A]+d.Imm, regs[d.B]) != nil {
					return i, exitStoreFault
				}
			}

		case ir.KindBr:
			if preds[d.Guard] {
				a, b := regs[d.A], regs[d.B]
				if d.AImm {
					a = d.Imm
				}
				if d.BImm {
					b = d.Imm
				}
				ctr[d.ctr]++
				if d.Cmp.Eval(a, b) {
					ctr[d.ctr+1]++
					return i, exitTaken
				}
			}
		case ir.KindJump:
			if preds[d.Guard] {
				ctr[d.ctr]++
				ctr[d.ctr+1]++
				return i, exitTaken
			}
		case ir.KindBrCLoop:
			if preds[d.Guard] {
				c := ir.W32(regs[d.A] - 1)
				regs[d.Dest] = c
				ctr[d.ctr]++
				if c > 0 {
					ctr[d.ctr+1]++
					return i, exitTaken
				}
			}
		case ir.KindExecLoop:
			// exec_[cw]loop transfers to the buffered loop, which in IR
			// form is just its Target block.
			if preds[d.Guard] {
				return i, exitTaken
			}

		case ir.KindCall:
			if preds[d.Guard] {
				return i, exitCall
			}
		case ir.KindRet:
			if preds[d.Guard] {
				return i, exitRet
			}

		default:
			return i, exitInvalid
		}
	}
	return stop, exitEnd
}
