// Package loopbuffer implements compile-time assignment of loops to
// the loop buffer (Sections 5 and 6): it identifies bufferable loop
// sections in the scheduled code, ranks them by their benefit in the
// program's execution (vliw.Execution.Weights), and
// chooses buffer offsets so that the hottest loops evict each other as
// little as possible. The runtime record/replay semantics of the
// Table 3 operations are modeled by the simulator from this plan.
package loopbuffer

import (
	"fmt"
	"sort"

	"lpbuf/internal/ir"
	"lpbuf/internal/sched"
	"lpbuf/internal/vliw"
)

// candidate is a bufferable loop with its placement metrics.
type candidate struct {
	pl      *vliw.PlannedLoop
	weight  float64 // executed iterations
	entries float64 // executed entries
	benefit float64
	density float64
}

// Plan builds a buffer plan for the scheduled program from its loops'
// weights in an execution of it.
func Plan(code *sched.Code, w vliw.Weights, capacity int) *vliw.BufferPlan {
	plan := &vliw.BufferPlan{Capacity: capacity}
	var cands []*candidate

	for _, name := range code.Prog.Order {
		fc := code.Funcs[name]
		for _, sec := range fc.Sections {
			pl := sectionLoop(fc, sec)
			if pl == nil {
				continue
			}
			if pl.Ops == 0 || pl.Ops > capacity {
				continue
			}
			lw := w[pl.Section()]
			c := &candidate{pl: pl, weight: float64(lw.Iterations), entries: float64(lw.Entries)}
			if c.entries == 0 {
				c.entries = 1
			}
			if c.weight <= c.entries {
				continue // no reuse to exploit
			}
			c.benefit = (c.weight - c.entries) * float64(pl.Ops)
			c.density = c.benefit / float64(pl.Ops)
			cands = append(cands, c)
		}
	}

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].density != cands[j].density {
			return cands[i].density > cands[j].density
		}
		return cands[i].pl.Key() < cands[j].pl.Key()
	})

	// Greedy placement: each loop picks the offset minimizing the
	// density of overlapped, already-placed loops.
	type placed struct {
		off, ops int
		density  float64
	}
	var laid []placed
	for _, c := range cands {
		// Candidate offsets: 0 and the end of every placed interval.
		offs := []int{0}
		for _, p := range laid {
			if p.off+p.ops+c.pl.Ops <= capacity {
				offs = append(offs, p.off+p.ops)
			}
		}
		bestOff, bestCost := -1, 0.0
		for _, off := range offs {
			if off+c.pl.Ops > capacity {
				continue
			}
			cost := 0.0
			for _, p := range laid {
				if off < p.off+p.ops && p.off < off+c.pl.Ops {
					cost += p.density
				}
			}
			if bestOff < 0 || cost < bestCost {
				bestOff, bestCost = off, cost
			}
		}
		if bestOff < 0 {
			continue
		}
		c.pl.Offset = bestOff
		laid = append(laid, placed{off: bestOff, ops: c.pl.Ops, density: c.density})
		plan.Loops = append(plan.Loops, c.pl)
	}
	return plan
}

// sectionLoop recognizes a bufferable loop section and builds its
// PlannedLoop (offset filled in later).
func sectionLoop(fc *sched.FuncCode, sec *sched.BlockCode) *vliw.PlannedLoop {
	switch sec.Kind {
	case sched.KindKernel:
		return &vliw.PlannedLoop{
			Func:        fc.F.Name,
			StartBundle: sec.Start,
			EndBundle:   sec.Start + len(sec.Bundles),
			Ops:         sectionOps(sec),
			Counted:     true,
			Label:       loopLabel(fc, sec),
		}
	case sched.KindStraight:
		// A self-loop: its loop-back branch targets the section start.
		counted := false
		found := false
		for _, b := range sec.Bundles {
			for _, so := range b.Ops {
				if so.Op.LoopBack && so.Op.IsBranch() && so.TargetBundle == sec.Start {
					found = true
					counted = so.Op.Opcode == ir.OpBrCLoop
				}
			}
		}
		if !found {
			return nil
		}
		return &vliw.PlannedLoop{
			Func:        fc.F.Name,
			StartBundle: sec.Start,
			EndBundle:   sec.Start + len(sec.Bundles),
			Ops:         sectionOps(sec),
			Counted:     counted,
			Label:       loopLabel(fc, sec),
		}
	}
	return nil
}

// loopLabel names a loop by its source block label when available.
func loopLabel(fc *sched.FuncCode, sec *sched.BlockCode) string {
	if blk := fc.F.Block(sec.Block); blk != nil && blk.Name != "" {
		return fmt.Sprintf("%s:%s", fc.F.Name, blk.Name)
	}
	return fmt.Sprintf("%s:B%d", fc.F.Name, sec.Block)
}

func sectionOps(sec *sched.BlockCode) int {
	n := 0
	for _, b := range sec.Bundles {
		n += len(b.Ops)
	}
	return n
}
