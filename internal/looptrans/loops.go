// Package looptrans implements loop analysis (dominators, natural
// loops, counted-loop recognition) and the paper's loop-shaping
// transformations: full loop peeling, predicated loop collapsing
// (Section 3, Figures 1 and 2) and conversion of counted loops to the
// special br.cloop form consumed by the loop buffer.
package looptrans

import (
	"slices"
	"sort"

	"lpbuf/internal/ir"
	"lpbuf/internal/profile"
)

// Loop describes one natural loop.
type Loop struct {
	Header ir.BlockID
	// Blocks is the loop body including the header.
	Blocks map[ir.BlockID]bool
	// Latches are blocks with a back edge to the header.
	Latches []ir.BlockID
	// Exits are edges leaving the loop: from a loop block to an
	// outside block.
	Exits []LoopExit
	// Parent is the immediately enclosing loop, if any.
	Parent *Loop
	// Children are loops nested directly inside this one.
	Children []*Loop
	// Depth is 1 for outermost loops.
	Depth int
}

// LoopExit is an edge leaving a loop.
type LoopExit struct {
	From, To ir.BlockID
}

// Contains reports whether the loop body includes block id.
func (l *Loop) Contains(id ir.BlockID) bool { return l.Blocks[id] }

// BlockIDs returns the loop's blocks in ascending order.
func (l *Loop) BlockIDs() []ir.BlockID {
	out := make([]ir.BlockID, 0, len(l.Blocks))
	for id := range l.Blocks {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DomSets holds the dominance sets of one function as dense bitsets,
// one row of words per block, indexed by the block's position in
// f.Blocks.
type DomSets struct {
	pos   map[ir.BlockID]int
	words int
	bits  []uint64
}

// row returns the dominator bitset of the block at position i.
func (d *DomSets) row(i int) []uint64 { return d.bits[i*d.words : (i+1)*d.words] }

// Dominates reports whether block a dominates block b (every block
// dominates itself). Blocks outside the function dominate nothing and
// are dominated by nothing.
func (d *DomSets) Dominates(a, b ir.BlockID) bool {
	ia, oka := d.pos[a]
	ib, okb := d.pos[b]
	return oka && okb && d.row(ib)[ia/64]&(1<<uint(ia%64)) != 0
}

// Dominators computes the dominance sets with the classic iterative
// bitvector algorithm: the entry's set is itself, every other block's
// starts full and shrinks to itself plus the intersection of its
// predecessors' sets until nothing changes.
func Dominators(f *ir.Func) *DomSets {
	n := len(f.Blocks)
	d := &DomSets{pos: make(map[ir.BlockID]int, n), words: (n + 63) / 64}
	d.bits = make([]uint64, n*d.words)
	for i, b := range f.Blocks {
		d.pos[b.ID] = i
	}
	preds := make([][]int, n)
	for i, b := range f.Blocks {
		for _, s := range b.Succs() {
			if j, ok := d.pos[s]; ok {
				preds[j] = append(preds[j], i)
			}
		}
	}
	for i, b := range f.Blocks {
		row := d.row(i)
		if b.ID == f.Entry {
			row[i/64] = 1 << uint(i%64)
			continue
		}
		for w := range row {
			row[w] = ^uint64(0)
		}
		if tail := n % 64; tail != 0 {
			row[len(row)-1] = 1<<uint(tail) - 1
		}
	}
	inter := make([]uint64, d.words)
	for changed := true; changed; {
		changed = false
		for i, b := range f.Blocks {
			if b.ID == f.Entry {
				continue
			}
			clear(inter)
			for k, p := range preds[i] {
				dp := d.row(p)
				if k == 0 {
					copy(inter, dp)
					continue
				}
				for w := range inter {
					inter[w] &= dp[w]
				}
			}
			inter[i/64] |= 1 << uint(i%64)
			if row := d.row(i); !slices.Equal(row, inter) {
				copy(row, inter)
				changed = true
			}
		}
	}
	return d
}

// FindLoops returns the function's natural loops with nesting
// relations, innermost loops first within the returned slice ordering
// by descending depth.
func FindLoops(f *ir.Func) []*Loop {
	f.RemoveUnreachable()
	dom := Dominators(f)
	preds := f.Preds()

	// Find back edges t->h (h dominates t); group by header.
	latches := map[ir.BlockID][]ir.BlockID{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if dom.Dominates(s, b.ID) {
				latches[s] = append(latches[s], b.ID)
			}
		}
	}

	var loops []*Loop
	for header, ls := range latches {
		l := &Loop{Header: header, Blocks: map[ir.BlockID]bool{header: true}}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		l.Latches = ls
		// Natural loop body: blocks reaching a latch without passing
		// the header.
		var stack []ir.BlockID
		for _, t := range ls {
			if !l.Blocks[t] {
				l.Blocks[t] = true
				stack = append(stack, t)
			}
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range preds[n] {
				if !l.Blocks[p] {
					l.Blocks[p] = true
					stack = append(stack, p)
				}
			}
		}
		loops = append(loops, l)
	}

	// Exits.
	for _, l := range loops {
		for id := range l.Blocks {
			b := f.Block(id)
			for _, s := range b.Succs() {
				if !l.Blocks[s] {
					l.Exits = append(l.Exits, LoopExit{From: id, To: s})
				}
			}
		}
		sort.Slice(l.Exits, func(i, j int) bool {
			if l.Exits[i].From != l.Exits[j].From {
				return l.Exits[i].From < l.Exits[j].From
			}
			return l.Exits[i].To < l.Exits[j].To
		})
	}

	// Nesting: loop A is inside B if B contains A's header and A != B.
	// Pick the smallest containing loop as parent.
	for _, a := range loops {
		var parent *Loop
		for _, b := range loops {
			if a == b || !b.Blocks[a.Header] {
				continue
			}
			if b.Header == a.Header {
				continue // same-header loops were merged by grouping
			}
			if parent == nil || len(b.Blocks) < len(parent.Blocks) {
				parent = b
			}
		}
		a.Parent = parent
		if parent != nil {
			parent.Children = append(parent.Children, a)
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	sort.Slice(loops, func(i, j int) bool {
		if loops[i].Depth != loops[j].Depth {
			return loops[i].Depth > loops[j].Depth // innermost first
		}
		return loops[i].Header < loops[j].Header
	})
	return loops
}

// Counted describes a recognized counted loop whose body is a single
// block: the induction register i starts at Init (when InitKnown),
// advances by Step once per iteration, and the bottom-test back edge is
// `br Cmp i, Bound -> header`. The loop is bottom-tested: the body runs
// at least once.
type Counted struct {
	Loop *Loop
	// Body is the single body block (== header).
	Body ir.BlockID
	// IndVar is the induction register.
	IndVar ir.Reg
	// Step is the literal increment applied once per iteration.
	Step int64
	// IncIdx is the index of the increment op within the body.
	IncIdx int
	// BrIdx is the index of the back-edge branch (last op).
	BrIdx int
	// Cmp and Bound describe the continuation test `i Cmp Bound`.
	Cmp ir.CmpKind
	// BoundImm is valid when BoundIsImm; otherwise BoundReg holds a
	// register that must be loop-invariant.
	BoundIsImm bool
	BoundImm   int64
	BoundReg   ir.Reg
	// Init/InitKnown: literal initial value found in the preheader.
	Init      int64
	InitKnown bool
	// Preheader is the unique out-of-loop predecessor of the header.
	Preheader ir.BlockID
}

// Trips returns the compile-time iteration count if fully literal.
func (c *Counted) Trips() (int64, bool) {
	if !c.InitKnown || !c.BoundIsImm || c.Step == 0 {
		return 0, false
	}
	// Bottom-tested: body runs once, then i advances, then test.
	n := int64(0)
	i := c.Init
	for {
		n++
		if n > 1<<20 {
			return 0, false
		}
		i = ir.W32(i + c.Step)
		if !c.Cmp.Eval(i, c.BoundImm) {
			return n, true
		}
	}
}

// DetectCounted recognizes the counted-loop pattern for a single-block
// loop. Returns nil when the loop does not match.
func DetectCounted(f *ir.Func, l *Loop) *Counted {
	if len(l.Blocks) != 1 || len(l.Latches) != 1 || l.Latches[0] != l.Header {
		return nil
	}
	b := f.Block(l.Header)
	if b == nil || len(b.Ops) == 0 {
		return nil
	}
	br := b.Ops[len(b.Ops)-1]
	if br.Opcode != ir.OpBr || br.Guard != 0 || br.Target != l.Header {
		return nil
	}
	// No other branches in the body, except guarded side-exit jumps
	// (hyperblock side exits): a counted loop with side exits still
	// converts to br.cloop correctly — an exit simply abandons the
	// remaining count.
	for _, op := range b.Ops[:len(b.Ops)-1] {
		if op.Opcode == ir.OpJump && op.Guard != 0 && op.Target != b.ID {
			continue
		}
		if op.IsBranch() || op.Opcode == ir.OpCall || op.Opcode == ir.OpRet {
			return nil
		}
	}
	if len(br.Src) < 1 {
		return nil
	}
	c := &Counted{Loop: l, Body: b.ID, IndVar: br.Src[0], Cmp: br.Cmp,
		BrIdx: len(b.Ops) - 1}
	if br.HasImm {
		c.BoundIsImm = true
		c.BoundImm = br.Imm
	} else {
		if len(br.Src) != 2 {
			return nil
		}
		c.BoundReg = br.Src[1]
	}
	// Exactly one def of IndVar in the body: `add i = i, step`.
	incIdx := -1
	for i, op := range b.Ops[:len(b.Ops)-1] {
		for _, d := range op.Dest {
			if d == c.IndVar {
				if incIdx >= 0 {
					return nil
				}
				if op.Opcode != ir.OpAdd && op.Opcode != ir.OpSub {
					return nil
				}
				if op.Guard != 0 || !op.HasImm || len(op.Src) != 1 || op.Src[0] != c.IndVar {
					return nil
				}
				incIdx = i
				c.Step = op.Imm
				if op.Opcode == ir.OpSub {
					c.Step = -c.Step
				}
			}
		}
	}
	if incIdx < 0 || c.Step == 0 {
		return nil
	}
	// The increment must precede the back-edge test and no op between
	// increment and branch may redefine the bound register.
	c.IncIdx = incIdx
	if !c.BoundIsImm {
		for id := range l.Blocks {
			for _, op := range f.Block(id).Ops {
				for _, d := range op.Dest {
					if d == c.BoundReg {
						return nil // bound not loop-invariant
					}
				}
			}
		}
	}
	// Unique preheader.
	preds := f.Preds()
	var outer []ir.BlockID
	for _, p := range preds[l.Header] {
		if !l.Blocks[p] {
			outer = append(outer, p)
		}
	}
	if len(outer) != 1 {
		return nil
	}
	c.Preheader = outer[0]
	// Find a literal init in the preheader: last def of IndVar must be
	// an unguarded mov-immediate.
	pre := f.Block(c.Preheader)
	for i := len(pre.Ops) - 1; i >= 0; i-- {
		op := pre.Ops[i]
		wrote := false
		for _, d := range op.Dest {
			if d == c.IndVar {
				wrote = true
			}
		}
		if !wrote {
			continue
		}
		if op.Opcode == ir.OpMov && op.Guard == 0 && op.HasImm && len(op.Src) == 0 {
			c.Init = op.Imm
			c.InitKnown = true
		}
		break
	}
	return c
}

// AvgTripsFromProfile computes a loop's average trip count per entry
// from profiled edge counts: header executions divided by entry-edge
// traversals.
func AvgTripsFromProfile(fp *profile.FuncProfile, f *ir.Func, l *Loop) float64 {
	if fp == nil {
		return AvgTrips(f, l)
	}
	header := float64(fp.Block[l.Header])
	if header == 0 {
		return 0
	}
	preds := f.Preds()
	entries := 0.0
	for _, p := range preds[l.Header] {
		if !l.Blocks[p] {
			entries += float64(fp.Edge[profile.Edge{From: p, To: l.Header}])
		}
	}
	if entries == 0 {
		return header
	}
	return header / entries
}

// AvgTrips estimates a loop's average trip count per entry from block
// weights alone (an approximation used when no edge profile exists):
// header executions divided by total external-predecessor weight.
func AvgTrips(f *ir.Func, l *Loop) float64 {
	header := f.Block(l.Header)
	if header == nil || header.Weight == 0 {
		return 0
	}
	preds := f.Preds()
	entries := 0.0
	backs := 0.0
	for _, p := range preds[l.Header] {
		pb := f.Block(p)
		if pb == nil {
			continue
		}
		if l.Blocks[p] {
			backs += pb.Weight
		} else {
			entries += pb.Weight
		}
	}
	_ = backs
	if entries == 0 {
		return header.Weight
	}
	return header.Weight / entries
}
