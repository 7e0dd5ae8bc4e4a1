package interp

import (
	"lpbuf/internal/ir"
	"lpbuf/internal/profile"
)

// The run's decoded image. Each function is decoded on its first call
// and kept for the rest of the run, never across runs: compile passes
// mutate programs between interpretations. Decoding resolves what the
// op loop would otherwise look up per executed op or block: block IDs
// to dense indices, branch targets and callees, and ir.Decode's
// operand routing. Errors stay where execution finds them: a missing
// block, a transfer to block 0 and an undefined callee are decoded as
// such and fail only when reached.

// fn is one function's decoded image and its dense profile counters.
type fn struct {
	f      *ir.Func
	blocks []block
	// entry is the entry block's index.
	entry         int32
	nRegs, nPreds int
	calls, ops    int64
	// ctr holds the function's profile counters: slot i < len(blocks)
	// counts entries of block i, and every transfer, branch and call
	// site has slots of its own after those. keys[i] says what slot i
	// counts, and succ[i], for a transfer's edge slot, the index of the
	// block it goes to (fellOff for Target 0).
	ctr  []int64
	keys []ctrKey
	succ []int32
}

// fellOff is the index of block 0: a transfer there runs off the end
// of the function.
const fellOff = -1

type block struct {
	id ir.BlockID
	// ops are the block's decoded ops and refs, in parallel, what only
	// calls and errors need.
	ops  []op
	refs []opRef
	// fall is the fallthrough block's index (fellOff when Fall is 0),
	// fallEdge its edge slot.
	fall, fallEdge int32
	// missing marks an ID the function has no block for: entering it
	// fails.
	missing bool
}

// op is one decoded op, 64 bytes: what the op loop reads.
type op struct {
	ir.DecodedOp
	// edge is a transfer's edge slot; ctr is a branch's executed-count
	// slot (its taken count follows) or a call's call-site slot.
	edge, ctr int32
}

// opRef is the rest of an op: the IR op, for error messages and call
// arguments, and a call's decoded callee (nil when undefined).
type opRef struct {
	op     *ir.Op
	callee *fn
}

// ctrKey names the profile count one counter slot folds into.
type ctrKey struct {
	kind ctrKind
	// id is the block ID or op ID; to is an edge's target block.
	id int
	to ir.BlockID
}

type ctrKind uint8

const (
	ctrBlock ctrKind = iota
	ctrEdge
	ctrBranchExec
	ctrBranchTaken
	ctrCallSite
)

// funcFor returns the decoded function named name, creating it (not
// yet decoded) on first reference; nil when the program has none.
func (st *state) funcFor(name string) *fn {
	if d, ok := st.funcs[name]; ok {
		return d
	}
	var d *fn
	if f := st.prog.Funcs[name]; f != nil {
		d = &fn{f: f}
		st.order = append(st.order, d)
	}
	st.funcs[name] = d
	return d
}

// decode builds fn's image: the blocks reachable from the entry, in the
// order execution could find them, then their ops. All of a function's
// ops share one backing array, as do its counters.
func (st *state) decode(fn *fn) {
	f := fn.f
	fn.nRegs, fn.nPreds = int(f.NumRegs())+1, int(f.NumPreds())+1

	index := map[ir.BlockID]int32{}
	var ids []ir.BlockID
	var blks []*ir.Block // nil for a missing ID
	add := func(id ir.BlockID) {
		if _, ok := index[id]; !ok {
			index[id] = int32(len(blks))
			ids = append(ids, id)
			blks = append(blks, f.Block(id))
		}
	}
	add(f.Entry)
	nops := 0
	for i := 0; i < len(blks); i++ {
		b := blks[i]
		if b == nil {
			continue
		}
		nops += len(b.Ops)
		for _, o := range b.Ops {
			if transfers(o) && o.Target != 0 {
				add(o.Target)
			}
		}
		if b.Fall != 0 {
			add(b.Fall)
		}
	}
	resolve := func(id ir.BlockID) int32 {
		if id == 0 {
			return fellOff
		}
		return index[id]
	}

	// Block entries take the first slots; an op takes at most three
	// more (a transfer's edge, a branch's two counts) and a block one
	// for its fallthrough edge.
	keys := make([]ctrKey, len(blks), len(blks)+3*nops+len(blks))
	for i, id := range ids {
		keys[i] = ctrKey{kind: ctrBlock, id: int(id)}
	}
	succ := make([]int32, cap(keys))
	slot := func(k ctrKey) int32 {
		keys = append(keys, k)
		return int32(len(keys) - 1)
	}
	edgeTo := func(from ir.BlockID, to ir.BlockID) int32 {
		e := slot(ctrKey{kind: ctrEdge, id: int(from), to: to})
		succ[e] = resolve(to)
		return e
	}

	fn.entry = index[f.Entry]
	fn.blocks = make([]block, len(blks))
	ops, refs := make([]op, nops), make([]opRef, nops)
	for i, b := range blks {
		db := &fn.blocks[i]
		db.id = ids[i]
		if b == nil {
			db.missing = true
			continue
		}
		n := len(b.Ops)
		db.ops, db.refs = ops[:n:n], refs[:n:n]
		ops, refs = ops[n:], refs[n:]
		for j, o := range b.Ops {
			d := &db.ops[j]
			d.DecodedOp = ir.Decode(o)
			db.refs[j].op = o
			if transfers(o) {
				d.edge = edgeTo(b.ID, o.Target)
			}
			switch d.Kind {
			case ir.KindBr, ir.KindJump, ir.KindBrCLoop:
				d.ctr = slot(ctrKey{kind: ctrBranchExec, id: o.ID})
				slot(ctrKey{kind: ctrBranchTaken, id: o.ID})
			case ir.KindCall:
				d.ctr = slot(ctrKey{kind: ctrCallSite, id: o.ID})
				db.refs[j].callee = st.funcFor(o.Callee)
			}
		}
		db.fall = resolve(b.Fall)
		db.fallEdge = edgeTo(b.ID, b.Fall)
	}
	fn.keys, fn.succ = keys, succ[:len(keys)]
	fn.ctr = make([]int64, len(keys))
}

// transfers reports whether o can move control to its Target block.
func transfers(o *ir.Op) bool {
	return o.IsBranch() || o.Opcode == ir.OpExecCLoop || o.Opcode == ir.OpExecWLoop
}

// fold adds the run's counts to prof, touching only the keys that
// counted something: the maps are those that incrementing them per
// event would give.
func (st *state) fold(prof *profile.Profile) {
	for _, fn := range st.order {
		if fn.calls == 0 {
			continue
		}
		fp := prof.ForFunc(fn.f.Name)
		fp.Calls += fn.calls
		fp.Ops += fn.ops
		for i, n := range fn.ctr {
			if n == 0 {
				continue
			}
			switch k := fn.keys[i]; k.kind {
			case ctrBlock:
				fp.Block[ir.BlockID(k.id)] += n
			case ctrEdge:
				fp.Edge[profile.Edge{From: ir.BlockID(k.id), To: k.to}] += n
			case ctrBranchExec:
				fp.BranchExec[k.id] += n
			case ctrBranchTaken:
				fp.BranchTaken[k.id] += n
			case ctrCallSite:
				fp.CallSite[k.id] += n
			}
		}
	}
	prof.TotalOps = st.ops
}
