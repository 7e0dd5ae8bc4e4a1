// Package interp is a functional interpreter for the IR. It executes
// programs in CFG form (before or after the control transformations —
// it fully understands guards and predicate defines), produces the
// reference outputs the cycle-level simulator is validated against, and
// optionally gathers execution profiles for the profile-guided passes.
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
	prof  *profile.Profile
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
	// counters holds the dense per-function profile scratch (nil when
	// not profiling).
	counters map[*ir.Func]*funcCounters
}

type frameScratch struct {
	regs  []int64
	preds []bool
}

// funcCounters is the dense profile scratch for one function. Block
// and op IDs are small sequential integers, so counting events in
// ID-indexed slices (and folding into the FuncProfile maps once at the
// end of the run) replaces a map assignment per executed block, branch
// and call — the hottest part of profile collection, which the
// profile-guided passes pay on every benchmark's full input.
type funcCounters struct {
	fp     *profile.FuncProfile
	calls  int64
	ops    int64
	block  []int64
	bexec  []int64
	btaken []int64
	csite  []int64
	edge   [][]edgeCount
}

// edgeCount is one outgoing-edge counter; each block has only a
// handful of distinct successors, so a linear scan beats hashing.
type edgeCount struct {
	to ir.BlockID
	n  int64
}

func (c *funcCounters) addEdge(from, to ir.BlockID) {
	l := c.edge[from]
	for i := range l {
		if l[i].to == to {
			l[i].n++
			return
		}
	}
	c.edge[from] = append(l, edgeCount{to: to, n: 1})
}

// countersFor returns (creating on first visit) f's dense counters.
// Sizes come from scanning the function so manually numbered IDs are
// covered too.
func (st *state) countersFor(f *ir.Func) *funcCounters {
	if c := st.counters[f]; c != nil {
		return c
	}
	var maxB ir.BlockID
	maxOp := 0
	for _, b := range f.Blocks {
		if b.ID > maxB {
			maxB = b.ID
		}
		for _, op := range b.Ops {
			if op.ID > maxOp {
				maxOp = op.ID
			}
		}
	}
	c := &funcCounters{
		fp:     st.prof.ForFunc(f.Name),
		block:  make([]int64, maxB+1),
		bexec:  make([]int64, maxOp+1),
		btaken: make([]int64, maxOp+1),
		csite:  make([]int64, maxOp+1),
		edge:   make([][]edgeCount, maxB+1),
	}
	st.counters[f] = c
	return c
}

// foldCounters folds the run's dense counts into the profile maps,
// touching only IDs that actually executed — the resulting maps are
// identical to incrementing them per event.
func (st *state) foldCounters() {
	for _, c := range st.counters {
		fp := c.fp
		fp.Calls += c.calls
		fp.Ops += c.ops
		for id, n := range c.block {
			if n != 0 {
				fp.Block[ir.BlockID(id)] += n
			}
		}
		for id, n := range c.bexec {
			if n != 0 {
				fp.BranchExec[id] += n
			}
		}
		for id, n := range c.btaken {
			if n != 0 {
				fp.BranchTaken[id] += n
			}
		}
		for id, n := range c.csite {
			if n != 0 {
				fp.CallSite[id] += n
			}
		}
		for from, l := range c.edge {
			for _, ec := range l {
				fp.Edge[profile.Edge{From: ir.BlockID(from), To: ec.to}] += ec.n
			}
		}
	}
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
	entry := prog.Funcs[prog.Entry]
	if entry == nil {
		return nil, fmt.Errorf("interp: no entry function %q", prog.Entry)
	}
	st := &state{
		prog:  prog,
		mem:   make([]byte, prog.MemSize),
		prof:  opts.Profile,
		maxOp: opts.MaxOps,
		maxD:  opts.MaxDepth,
	}
	if st.maxOp == 0 {
		st.maxOp = 4e9
	}
	if st.maxD == 0 {
		st.maxD = 256
	}
	if st.prof != nil {
		st.counters = map[*ir.Func]*funcCounters{}
	}
	for _, g := range prog.Globals {
		copy(st.mem[g.Offset:g.Offset+g.Size], g.Init)
	}
	ret, err := st.call(entry, opts.EntryArgs)
	if err != nil {
		return nil, err
	}
	if st.prof != nil {
		st.foldCounters()
		st.prof.TotalOps = st.ops
	}
	return &Result{Mem: st.mem, Ret: ret, Ops: st.ops}, nil
}

func (st *state) call(f *ir.Func, args []int64) (int64, error) {
	if st.depth >= st.maxD {
		return 0, fmt.Errorf("interp: call depth limit in %s", f.Name)
	}
	st.depth++
	defer func() { st.depth-- }()

	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	regs, preds := st.frame(st.depth, int(f.NumRegs())+1, int(f.NumPreds())+1)
	preds[0] = true
	for i, p := range f.Params {
		regs[p] = ir.W32(args[i])
	}

	var fc *funcCounters
	if st.prof != nil {
		fc = st.countersFor(f)
		fc.calls++
	}

	cur := f.Entry
	for {
		b := f.Block(cur)
		if b == nil {
			return 0, fmt.Errorf("interp: %s: missing block B%d", f.Name, cur)
		}
		if fc != nil {
			fc.block[b.ID]++
		}
		next, ret, returned, err := st.execBlock(f, fc, b, regs, preds)
		if err != nil {
			return 0, err
		}
		if returned {
			return ret, nil
		}
		if next == 0 {
			return 0, fmt.Errorf("interp: %s: B%d fell off the end", f.Name, b.ID)
		}
		if fc != nil {
			fc.addEdge(b.ID, next)
		}
		cur = next
	}
}

// execBlock runs the ops of b. It returns the next block (0 if none),
// or a return value when the function returned.
func (st *state) execBlock(f *ir.Func, fc *funcCounters, b *ir.Block,
	regs []int64, preds []bool) (next ir.BlockID, ret int64, returned bool, err error) {

	src := func(op *ir.Op, i int) int64 {
		// The immediate, when present, stands in the last source slot.
		if op.HasImm && i == len(op.Src) {
			return op.Imm
		}
		return regs[op.Src[i]]
	}

	for _, op := range b.Ops {
		st.ops++
		if fc != nil {
			fc.ops++
		}
		if st.ops > st.maxOp {
			return 0, 0, false, fmt.Errorf("interp: op limit exceeded in %s", f.Name)
		}
		guard := preds[op.Guard]
		switch {
		case op.Opcode == ir.OpNop:

		case op.Opcode == ir.OpCmpP:
			cond := op.Cmp.Eval(src(op, 0), src(op, 1))
			// Iterate PDest directly with PredDefines' filter: the
			// accessor allocates a fresh slice per call, which this
			// loop is far too hot for.
			for _, pd := range op.PDest {
				if pd.Type == ir.PTNone || pd.Pred == 0 {
					continue
				}
				v, w := pd.Type.Update(guard, cond)
				if w {
					preds[pd.Pred] = v
				}
			}

		case op.Opcode == ir.OpSel:
			if guard {
				if regs[op.Src[0]] != 0 {
					regs[op.Dest[0]] = regs[op.Src[1]]
				} else {
					regs[op.Dest[0]] = regs[op.Src[2]]
				}
			}

		case ir.IsALUEvaluable(op.Opcode):
			if guard {
				var a, bb int64
				if op.Opcode == ir.OpMov {
					a = src(op, 0)
				} else if op.Opcode == ir.OpAbs {
					a = src(op, 0)
				} else {
					a, bb = src(op, 0), src(op, 1)
				}
				regs[op.Dest[0]] = ir.EvalALU(op.Opcode, op.Cmp, a, bb)
			}

		case op.IsLoad():
			if guard {
				v, lerr := ir.Load(st.mem, op.Opcode, regs[op.Src[0]]+op.Imm)
				if lerr != nil {
					if op.Speculative {
						v = 0 // speculative loads squash faults
					} else {
						return 0, 0, false, fmt.Errorf("%s in %s B%d: %v", op, f.Name, b.ID, lerr)
					}
				}
				regs[op.Dest[0]] = v
			}

		case op.IsStore():
			if guard {
				if serr := ir.Store(st.mem, op.Opcode, regs[op.Src[0]]+op.Imm, regs[op.Src[1]]); serr != nil {
					return 0, 0, false, fmt.Errorf("%s in %s B%d: %v", op, f.Name, b.ID, serr)
				}
			}

		case op.Opcode == ir.OpBr:
			taken := false
			if guard {
				taken = op.Cmp.Eval(src(op, 0), src(op, 1))
				if fc != nil {
					fc.bexec[op.ID]++
					if taken {
						fc.btaken[op.ID]++
					}
				}
			}
			if taken {
				return op.Target, 0, false, nil
			}

		case op.Opcode == ir.OpJump:
			if guard {
				if fc != nil {
					fc.bexec[op.ID]++
					fc.btaken[op.ID]++
				}
				return op.Target, 0, false, nil
			}

		case op.Opcode == ir.OpBrCLoop:
			if guard {
				c := ir.W32(regs[op.Src[0]] - 1)
				regs[op.Dest[0]] = c
				if fc != nil {
					fc.bexec[op.ID]++
				}
				if c > 0 {
					if fc != nil {
						fc.btaken[op.ID]++
					}
					return op.Target, 0, false, nil
				}
			}

		case op.Opcode == ir.OpCall:
			if guard {
				callee := st.prog.Funcs[op.Callee]
				if callee == nil {
					return 0, 0, false, fmt.Errorf("interp: call to undefined %q", op.Callee)
				}
				if cap(st.argbuf) < len(op.Src) {
					st.argbuf = make([]int64, len(op.Src))
				}
				args := st.argbuf[:len(op.Src)]
				for i, r := range op.Src {
					args[i] = regs[r]
				}
				if fc != nil {
					fc.csite[op.ID]++
				}
				rv, cerr := st.call(callee, args)
				if cerr != nil {
					return 0, 0, false, cerr
				}
				if len(op.Dest) > 0 {
					regs[op.Dest[0]] = rv
				}
			}

		case op.Opcode == ir.OpRet:
			if guard {
				var rv int64
				if len(op.Src) > 0 {
					rv = regs[op.Src[0]]
				}
				return 0, rv, true, nil
			}

		case op.IsBufferOp():
			// Buffer management ops are fetch-engine directives; they
			// are semantic no-ops to the interpreter except that
			// exec_[cw]loop transfers control to the buffered loop,
			// which in IR form is just its Target block.
			if guard && (op.Opcode == ir.OpExecCLoop || op.Opcode == ir.OpExecWLoop) {
				return op.Target, 0, false, nil
			}

		default:
			return 0, 0, false, fmt.Errorf("interp: unhandled op %s in %s", op, f.Name)
		}
	}
	return b.Fall, 0, false, nil
}
