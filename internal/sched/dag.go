package sched

import (
	"sort"

	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
)

// Edge is a dependence: successor op index, minimum latency in cycles,
// and iteration distance (0 = same iteration, 1 = next iteration).
// The scheduling constraint is sigma(to) + II*dist >= sigma(from) + lat.
type Edge struct {
	To   int
	Lat  int
	Dist int
}

// DAG is the dependence graph over a block's ops (by index).
type DAG struct {
	Ops   []*ir.Op
	Succs [][]Edge
	Preds [][]Edge
	// Height is a scheduling priority: longest latency path over
	// same-iteration edges.
	Height []int
}

type dagBuilder struct {
	ops     []*ir.Op
	lat     machine.Latencies
	alias   *AliasInfo
	penalty int
	edges   map[[3]int]int // (from, to, dist) -> max lat
}

func (b *dagBuilder) add(from, to, lat, dist int) {
	if from == to && dist == 0 {
		return
	}
	key := [3]int{from, to, dist}
	if e, ok := b.edges[key]; !ok || lat > e {
		b.edges[key] = lat
	}
}

// latOf returns op result latency.
func (b *dagBuilder) latOf(op *ir.Op) int { return ir.LatencyOf(op, b.lat) }

// regAccess enumerates register reads/writes of an op.
func regReads(op *ir.Op) []ir.Reg { return op.Src }
func regWrites(op *ir.Op) []ir.Reg {
	return op.Dest
}

// predAccess: returns (reads, writes) of predicate registers. Or/and
// type defines are read-modify-write.
func predAccess(op *ir.Op) (reads, writes []ir.PredReg) {
	if op.Guard != 0 {
		reads = append(reads, op.Guard)
	}
	for _, pd := range op.PredDefines() {
		writes = append(writes, pd.Pred)
		switch pd.Type {
		case ir.PTOT, ir.PTOF, ir.PTAT, ir.PTAF:
			reads = append(reads, pd.Pred)
		}
	}
	return
}

// BuildDAG constructs the dependence graph for a block. When selfLoop
// is true, distance-1 edges for the block's self back edge are added.
func BuildDAG(ops []*ir.Op, m *machine.Desc, alias *AliasInfo, selfLoop bool) *DAG {
	b := &dagBuilder{ops: ops, lat: m.Latency, alias: alias,
		penalty: m.BranchPenalty, edges: map[[3]int]int{}}
	n := len(ops)

	// --- Same-iteration register and predicate dependences ---
	lastDef := map[ir.Reg]int{}
	lastReads := map[ir.Reg][]int{}
	lastPDef := map[ir.PredReg]int{}
	lastPReads := map[ir.PredReg][]int{}

	for j, op := range ops {
		for _, r := range regReads(op) {
			if r == 0 {
				continue
			}
			if d, ok := lastDef[r]; ok {
				b.add(d, j, b.latOf(ops[d]), 0) // true
			}
			lastReads[r] = append(lastReads[r], j)
		}
		pr, pw := predAccess(op)
		for _, p := range pr {
			if d, ok := lastPDef[p]; ok {
				b.add(d, j, b.lat.Pred, 0)
			}
			lastPReads[p] = append(lastPReads[p], j)
		}
		for _, r := range regWrites(op) {
			if r == 0 {
				continue
			}
			for _, u := range lastReads[r] {
				// Anti: the read (at issue) must precede the write's
				// landing: sigma(j) + Lj >= sigma(u) + 1.
				b.add(u, j, 1-b.latOf(op), 0)
			}
			if d, ok := lastDef[r]; ok {
				// Output: later write lands later.
				b.add(d, j, b.latOf(ops[d])-b.latOf(op)+1, 0)
			}
			lastDef[r] = j
			lastReads[r] = nil
		}
		for _, p := range pw {
			for _, u := range lastPReads[p] {
				b.add(u, j, 1-b.lat.Pred, 0)
			}
			if d, ok := lastPDef[p]; ok {
				b.add(d, j, 1, 0)
			}
			lastPDef[p] = j
			lastPReads[p] = nil
		}
	}

	// --- Memory dependences (same iteration) ---
	// Track definitions between ops to validate same-base offset
	// disambiguation.
	defPos := map[ir.Reg][]int{}
	for j, op := range ops {
		for _, r := range regWrites(op) {
			defPos[r] = append(defPos[r], j)
		}
	}
	baseStable := func(r ir.Reg, i, j int) bool {
		for _, p := range defPos[r] {
			if p > i && p <= j {
				return false
			}
		}
		return true
	}
	var mems []int
	for j, op := range ops {
		if !op.IsLoad() && !op.IsStore() {
			continue
		}
		for _, i := range mems {
			a := ops[i]
			if !a.IsStore() && !op.IsStore() {
				continue // load-load
			}
			stable := a.Src[0] == op.Src[0] && baseStable(a.Src[0], i, j)
			if !b.alias.MayAlias(a, op, stable) {
				continue
			}
			if a.IsStore() && op.IsStore() {
				b.add(i, j, 1, 0)
			} else if a.IsStore() { // store -> load
				b.add(i, j, 1, 0)
			} else { // load -> store: same-cycle OK (loads sample first)
				b.add(i, j, 0, 0)
			}
		}
		mems = append(mems, j)
	}

	// --- Control dependences ---
	for j, op := range ops {
		if !op.IsBranch() && op.Opcode != ir.OpCall && op.Opcode != ir.OpRet {
			continue
		}
		// All earlier ops must issue no later than the branch; in
		// addition, results must land before a taken branch's target
		// can read them ("branch shadow"). Redirect penalties are fetch
		// bubbles on the simulator's accounting clock, not the semantic
		// issue clock, so only the one fetch cycle hides latency.
		for i := 0; i < j; i++ {
			shadow := 0
			if len(ops[i].Dest) > 0 || ops[i].IsPredDefine() {
				shadow = b.latOf(ops[i]) - 1
				if shadow < 0 {
					shadow = 0
				}
			}
			b.add(i, j, shadow, 0)
		}
		// Later unguarded, non-speculative ops issue strictly after.
		// Calls are full barriers for memory operations regardless of
		// guards (the callee observes memory).
		for k := j + 1; k < n; k++ {
			if ops[k].Guard == 0 && !ops[k].Speculative {
				b.add(j, k, 1, 0)
			} else if ops[k].IsBranch() {
				b.add(j, k, 1, 0)
			} else if op.Opcode == ir.OpCall &&
				(ops[k].IsLoad() || ops[k].IsStore() || ops[k].Opcode == ir.OpCall) {
				b.add(j, k, 1, 0)
			}
		}
	}

	// --- Cross-iteration (distance 1) dependences for self loops ---
	if selfLoop {
		firstDef := map[ir.Reg]int{}
		for j := n - 1; j >= 0; j-- {
			for _, r := range regWrites(ops[j]) {
				firstDef[r] = j
			}
		}
		firstPDef := map[ir.PredReg]int{}
		for j := n - 1; j >= 0; j-- {
			_, pw := predAccess(ops[j])
			for _, p := range pw {
				firstPDef[p] = j
			}
		}
		// True deps across the back edge: a read with no earlier def in
		// the block consumes the previous iteration's last def.
		seenDef := map[ir.Reg]bool{}
		seenPDef := map[ir.PredReg]bool{}
		for j, op := range ops {
			for _, r := range regReads(op) {
				if r == 0 || seenDef[r] {
					continue
				}
				if d, ok := lastDef[r]; ok {
					b.add(d, j, b.latOf(ops[d]), 1)
				}
			}
			pr, pw := predAccess(op)
			for _, p := range pr {
				if seenPDef[p] {
					continue
				}
				if d, ok := lastPDef[p]; ok {
					b.add(d, j, b.lat.Pred, 1)
				}
			}
			for _, r := range regWrites(op) {
				seenDef[r] = true
			}
			for _, p := range pw {
				seenPDef[p] = true
			}
		}
		// Anti across the back edge: reads of the last live segment
		// must precede the next iteration's first def landing.
		lastSeen := map[ir.Reg]bool{}
		lastPSeen := map[ir.PredReg]bool{}
		for j := n - 1; j >= 0; j-- {
			op := ops[j]
			for _, r := range regReads(op) {
				if r == 0 || lastSeen[r] {
					continue
				}
				if d, ok := firstDef[r]; ok {
					b.add(j, d, 1-b.latOf(ops[d]), 1)
				}
			}
			pr, pw := predAccess(op)
			for _, p := range pr {
				if lastPSeen[p] {
					continue
				}
				if d, ok := firstPDef[p]; ok {
					b.add(j, d, 1-b.lat.Pred, 1)
				}
			}
			for _, r := range regWrites(op) {
				lastSeen[r] = true
			}
			for _, p := range pw {
				lastPSeen[p] = true
			}
		}
		// Output across the back edge.
		for r, last := range lastDef {
			if first, ok := firstDef[r]; ok {
				b.add(last, first, b.latOf(ops[last])-b.latOf(ops[first])+1, 1)
			}
		}
		for p, last := range lastPDef {
			if first, ok := firstPDef[p]; ok {
				b.add(last, first, 1, 1)
			}
			_ = p
		}
		// Memory across the back edge (region-level only: bases change
		// between iterations).
		for _, i := range mems {
			for _, j := range mems {
				a, c := ops[i], ops[j]
				if !a.IsStore() && !c.IsStore() {
					continue
				}
				if !b.alias.MayAlias(a, c, false) {
					continue
				}
				b.add(i, j, 1, 1)
			}
		}
	}

	// Materialize. The edge map iterates in random order, but schedule
	// results must be a pure function of the input program (the golden
	// disassembly tests and sim-stat baselines pin them exactly), so the
	// adjacency lists are sorted: every consumer that iterates them —
	// the IMS eviction cascade in particular — stays deterministic.
	d := &DAG{Ops: ops, Succs: make([][]Edge, n), Preds: make([][]Edge, n),
		Height: make([]int, n)}
	for key, lat := range b.edges {
		d.Succs[key[0]] = append(d.Succs[key[0]], Edge{To: key[1], Lat: lat, Dist: key[2]})
		d.Preds[key[1]] = append(d.Preds[key[1]], Edge{To: key[0], Lat: lat, Dist: key[2]})
	}
	for _, adj := range [2][][]Edge{d.Succs, d.Preds} {
		for _, es := range adj {
			sort.Slice(es, func(a, b int) bool {
				if es[a].To != es[b].To {
					return es[a].To < es[b].To
				}
				if es[a].Dist != es[b].Dist {
					return es[a].Dist < es[b].Dist
				}
				return es[a].Lat < es[b].Lat
			})
		}
	}
	d.setHeights()
	return d
}

// setHeights computes Height over same-iteration edges (acyclic by
// program order).
func (d *DAG) setHeights() {
	for i := len(d.Ops) - 1; i >= 0; i-- {
		h := 0
		for _, e := range d.Succs[i] {
			if e.Dist != 0 {
				continue
			}
			if v := d.Height[e.To] + max(e.Lat, 0); v > h {
				h = v
			}
		}
		d.Height[i] = h
	}
}

// withoutLast returns d restricted to all but its last op, with Height
// recomputed. When the last op is a counted loop's br.cloop, whose
// counter no other op reads or writes, that is exactly the loop body's
// own DAG: the branch adds edges only into itself and onto itself, and
// none between two body ops. The restriction shares d's edges.
func (d *DAG) withoutLast() *DAG {
	n := len(d.Ops) - 1
	r := &DAG{Ops: d.Ops[:n:n], Succs: make([][]Edge, n), Preds: make([][]Edge, n),
		Height: make([]int, n)}
	// Adjacency lists are sorted by To, so edges touching op n end
	// each list.
	below := func(es []Edge) []Edge {
		k := sort.Search(len(es), func(j int) bool { return es[j].To >= n })
		return es[:k:k]
	}
	for i := 0; i < n; i++ {
		r.Succs[i], r.Preds[i] = below(d.Succs[i]), below(d.Preds[i])
	}
	r.setHeights()
	return r
}
