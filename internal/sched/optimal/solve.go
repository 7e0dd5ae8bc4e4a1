package optimal

import (
	"math/bits"
	"sort"
	"time"

	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
)

type status int

const (
	// statusSolved: a schedule at this II was found.
	statusSolved status = iota
	// statusInfeasible: the search space was exhausted — no schedule
	// exists at this II (a sound proof; see package comment).
	statusInfeasible
	// statusExhausted: the node budget or deadline died first; nothing
	// is known about this II.
	statusExhausted
)

type iiResult struct {
	status status
	ks     *sched.KernelSchedule
	nodes  int64
}

// edge is a dependence constraint with precomputed stage weight base
// w = lat - II*dist: the stage system requires
// stage(to) - stage(from) >= ceil((w - row(to) + row(from)) / II).
type edge struct {
	from, to int
	w        int
}

// solver holds the per-II search state. All state is local to one
// solveII call; the Scheduler shares nothing mutable across loops.
type solver struct {
	d  *sched.DAG
	m  *machine.Desc
	ii int
	n  int

	cls   []machine.UnitClass
	edges []edge
	// twoCyc[i] lists (j, wij, wji) pairs where edges i->j and j->i
	// both exist: the only cycles whose weight two row choices fix
	// directly, used for pairwise domain filtering.
	twoCyc [][]pairCycle

	branchSlot int
	// slotsFor caches m.SlotsFor per class; branch row (II-1) uses a
	// filtered copy excluding branchSlot.
	lastRow int

	dom  []uint64 // candidate-row bitsets, one per op
	row  []int    // assigned row, -1 = unassigned
	rows [][]int  // op indices assigned to each row

	budget   *int64
	deadline time.Time
	nodes    int64
	dead     bool // budget or deadline exhausted

	// bf holds the stage potentials of the last bfFeasible call; after
	// a feasible call they are a fixpoint the next call starts from.
	bf      []int
	ew      []int // bfFeasible scratch: each edge's minimized weight
	matchOp []int // matching scratch: slot -> op
	visited []bool
}

type pairCycle struct {
	j        int
	wij, wji int
}

// ceilDiv returns ceil(a/b) for b > 0 (Go's / truncates toward zero,
// which already equals ceil for a <= 0).
func ceilDiv(a, b int) int {
	if a > 0 {
		return (a + b - 1) / b
	}
	return a / b
}

// minBit and maxBit return the lowest and highest set bit of a row
// domain, or -1 when it is empty.
func minBit(m uint64) int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(m)
}

func maxBit(m uint64) int { return bits.Len64(m) - 1 }

// solveII searches for a kernel schedule at exactly the given II.
func solveII(d *sched.DAG, m *machine.Desc, ii int, budget *int64, deadline time.Time) iiResult {
	n := len(d.Ops)
	sv := &solver{
		d: d, m: m, ii: ii, n: n,
		cls:        make([]machine.UnitClass, n),
		branchSlot: branchSlotOf(m),
		lastRow:    ii - 1,
		dom:        make([]uint64, n),
		row:        make([]int, n),
		rows:       make([][]int, ii),
		budget:     budget,
		deadline:   deadline,
		bf:         make([]int, n),
		matchOp:    make([]int, m.Width()),
		visited:    make([]bool, m.Width()),
	}
	for i, op := range d.Ops {
		sv.cls[i] = ir.UnitFor(op)
		sv.row[i] = -1
	}

	// Deterministic edge list, sorted by source: bfFeasible reads each
	// op's out-edges as one run.
	for i := range d.Ops {
		for _, e := range d.Succs[i] {
			sv.edges = append(sv.edges, edge{from: i, to: e.To, w: e.Lat - ii*e.Dist})
		}
	}
	sort.Slice(sv.edges, func(a, b int) bool {
		ea, eb := sv.edges[a], sv.edges[b]
		if ea.from != eb.from {
			return ea.from < eb.from
		}
		if ea.to != eb.to {
			return ea.to < eb.to
		}
		return ea.w > eb.w
	})
	// Self edges constrain no rows — they are pure cycles: feasible iff
	// ceil(w/ii) <= 0.
	kept := sv.edges[:0]
	for _, e := range sv.edges {
		if e.from == e.to {
			if ceilDiv(e.w, ii) > 0 {
				return iiResult{status: statusInfeasible}
			}
			continue
		}
		kept = append(kept, e)
	}
	sv.edges = kept
	sv.ew = make([]int, len(kept))

	// Index 2-cycles for pairwise filtering.
	sv.twoCyc = make([][]pairCycle, n)
	type ekey struct{ f, t int }
	wmax := map[ekey]int{}
	for _, e := range sv.edges {
		k := ekey{e.from, e.to}
		if w, ok := wmax[k]; !ok || e.w > w {
			wmax[k] = e.w
		}
	}
	for _, e := range sv.edges {
		if back, ok := wmax[ekey{e.to, e.from}]; ok && e.from < e.to {
			sv.twoCyc[e.from] = append(sv.twoCyc[e.from], pairCycle{j: e.to, wij: e.w, wji: back})
			sv.twoCyc[e.to] = append(sv.twoCyc[e.to], pairCycle{j: e.from, wij: back, wji: e.w})
		}
	}

	// Initial domains: every row; resource-filter each singleton row
	// (an op whose class has no slot in a row can't go there — only the
	// branch row differs, having branchSlot pre-reserved).
	full := uint64(1)<<uint(ii) - 1
	if ii == 64 {
		full = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		sv.dom[i] = full
		for r := 0; r < ii; r++ {
			if !sv.rowFeasibleWith(r, i) {
				sv.dom[i] &^= 1 << uint(r)
			}
		}
		if sv.dom[i] == 0 {
			return iiResult{status: statusInfeasible}
		}
	}
	if !sv.bfFeasible() {
		return iiResult{status: statusInfeasible}
	}

	found := sv.search()
	res := iiResult{nodes: sv.nodes}
	switch {
	case found:
		ks := sv.extract()
		if ks == nil {
			// Defensive: extraction re-checks every constraint; a failure
			// here would be a solver bug — treat as unproven, not as a
			// false infeasibility proof.
			res.status = statusExhausted
			return res
		}
		res.status = statusSolved
		res.ks = ks
	case sv.dead:
		res.status = statusExhausted
	default:
		res.status = statusInfeasible
	}
	return res
}

func branchSlotOf(m *machine.Desc) int {
	brSlots := m.SlotsFor(machine.UnitBranch)
	return brSlots[len(brSlots)-1]
}

// search runs the propagate-and-branch loop. Returns true when a full
// row assignment satisfying all constraints was reached.
func (sv *solver) search() bool {
	// Fail-first variable order: smallest domain, then greatest height,
	// then lowest index.
	op := -1
	best := 65
	for i := 0; i < sv.n; i++ {
		if sv.row[i] >= 0 {
			continue
		}
		c := bits.OnesCount64(sv.dom[i])
		if c < best || (c == best && sv.d.Height[i] > sv.d.Height[op]) {
			op, best = i, c
		}
	}
	if op < 0 {
		return true // all rows assigned; bfFeasible held after the last one
	}

	domSave := make([]uint64, sv.n)
	// Every child starts Bellman-Ford from this node's potentials.
	bfSave := append([]int(nil), sv.bf...)
	for r := 0; r < sv.ii; r++ {
		if sv.dom[op]&(1<<uint(r)) == 0 {
			continue
		}
		sv.nodes++
		if *sv.budget--; *sv.budget < 0 {
			sv.dead = true
			return false
		}
		if sv.nodes&1023 == 0 && !sv.deadline.IsZero() && time.Now().After(sv.deadline) {
			sv.dead = true
			return false
		}

		copy(domSave, sv.dom)
		copy(sv.bf, bfSave)
		sv.row[op] = r
		sv.dom[op] = 1 << uint(r)
		sv.rows[r] = append(sv.rows[r], op)
		if sv.propagate(op, r) && sv.search() {
			return true
		}
		sv.rows[r] = sv.rows[r][:len(sv.rows[r])-1]
		sv.row[op] = -1
		copy(sv.dom, domSave)
		if sv.dead {
			return false
		}
	}
	return false
}

// propagate filters domains after assigning op to row r and checks
// global feasibility. Filtering is sound (removes only rows that admit
// no completion); completeness comes from the search itself.
func (sv *solver) propagate(op, r int) bool {
	// Resource filtering: only row r gained an occupant, so only the
	// r-bit of unassigned domains can change. Whether row r can take
	// one more op depends only on that op's unit class, so the matching
	// runs once per class.
	var tested, fits [machine.NumUnitClasses]bool
	for i := 0; i < sv.n; i++ {
		if sv.row[i] >= 0 || sv.dom[i]&(1<<uint(r)) == 0 {
			continue
		}
		c := sv.cls[i]
		if !tested[c] {
			tested[c], fits[c] = true, sv.rowFeasibleWith(r, i)
		}
		if !fits[c] {
			sv.dom[i] &^= 1 << uint(r)
			if sv.dom[i] == 0 {
				return false
			}
		}
	}
	// Pairwise 2-cycle filtering against the newly fixed row.
	for _, pc := range sv.twoCyc[op] {
		j := pc.j
		if sv.row[j] >= 0 {
			continue
		}
		for rj := 0; rj < sv.ii; rj++ {
			if sv.dom[j]&(1<<uint(rj)) == 0 {
				continue
			}
			if ceilDiv(pc.wij+r-rj, sv.ii)+ceilDiv(pc.wji+rj-r, sv.ii) > 0 {
				sv.dom[j] &^= 1 << uint(rj)
			}
		}
		if sv.dom[j] == 0 {
			return false
		}
	}
	return sv.bfFeasible()
}

// wmin lower-bounds an edge's stage weight over the current domains:
// ceil is monotone in row(from) and antitone in row(to), so the
// minimum uses the smallest candidate source row and largest candidate
// sink row.
func (sv *solver) wmin(e edge) int {
	rf := sv.row[e.from]
	if rf < 0 {
		rf = minBit(sv.dom[e.from])
	}
	rt := sv.row[e.to]
	if rt < 0 {
		rt = maxBit(sv.dom[e.to])
	}
	return ceilDiv(e.w+rf-rt, sv.ii)
}

// bfFeasible decides whether the stage difference system with
// minimized weights admits a solution: Bellman-Ford longest paths; a
// relaxation still firing after n full passes proves a positive-weight
// cycle, i.e. infeasibility. With all rows assigned the weights are
// exact and this is a complete decision procedure for the II.
//
// The potentials start from sv.bf, which search sets to the parent
// node's fixpoint. The verdict does not depend on the start. Every
// potential is a start value plus the weight of a walk. Without a
// positive cycle a walk weighs no more than the simple path left after
// cutting its cycles, so n-1 passes reach the fixpoint; with one there
// is no fixpoint. Domains only shrink down the tree, so weights only
// grow and the parent's fixpoint is already a lower bound on the
// child's: a feasible child needs a pass or two.
//
// The same walk argument ends an infeasible call early. A simple path
// leaves each op at most once, so it weighs at most the sum of each
// op's heaviest positive out-edge. A potential above the largest start
// value plus that sum must come from a positive cycle.
func (sv *solver) bfFeasible() bool {
	// Domains do not change during the call: minimize each edge's
	// weight once, not once per pass, and sum the heaviest positive
	// out-edge of each op (edges are sorted by source).
	w := sv.ew
	pathMax, from, heaviest := 0, -1, 0
	for k, e := range sv.edges {
		w[k] = sv.wmin(e)
		if e.from != from {
			pathMax += heaviest
			from, heaviest = e.from, 0
		}
		heaviest = max(heaviest, w[k])
	}
	pathMax += heaviest
	s := sv.bf
	limit := 0
	for _, v := range s {
		limit = max(limit, v)
	}
	limit += pathMax
	for pass := 0; pass <= sv.n; pass++ {
		changed := false
		for k, e := range sv.edges {
			if v := s[e.from] + w[k]; s[e.to] < v {
				if v > limit {
					return false
				}
				s[e.to] = v
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// rowFeasibleWith reports whether row r can host its current occupants
// plus op extra: a perfect matching of ops onto distinct slots
// providing their unit classes must exist (the branch row additionally
// loses branchSlot to the loop-back branch). Using exact matching
// instead of greedy commitment means the search never has to branch
// over slots.
func (sv *solver) rowFeasibleWith(r, extra int) bool {
	for i := range sv.matchOp {
		sv.matchOp[i] = -1
	}
	if r == sv.lastRow {
		sv.matchOp[sv.branchSlot] = 1 << 30
	}
	for _, o := range sv.rows[r] {
		if !sv.augment(o) {
			return false
		}
	}
	return extra < 0 || sv.augment(extra)
}

// augment finds an augmenting path (Kuhn's algorithm) placing op o.
func (sv *solver) augment(o int) bool {
	for i := range sv.visited {
		sv.visited[i] = false
	}
	return sv.tryPlace(o)
}

func (sv *solver) tryPlace(o int) bool {
	for _, s := range sv.m.SlotsFor(sv.cls[o]) {
		if sv.visited[s] || sv.matchOp[s] == 1<<30 {
			continue
		}
		sv.visited[s] = true
		if sv.matchOp[s] == -1 || sv.tryPlace(sv.matchOp[s]) {
			sv.matchOp[s] = o
			return true
		}
	}
	return false
}

// extract materializes the found assignment into a KernelSchedule:
// exact Bellman-Ford resolves minimal stages, and a final matching per
// row fixes slots. Every dependence constraint is re-checked; nil on
// violation (which would indicate a solver bug, never an unsound
// schedule escaping).
func (sv *solver) extract() *sched.KernelSchedule {
	ii, n := sv.ii, sv.n
	s := sv.bf
	for i := range s {
		s[i] = 0
	}
	ok := false
	for pass := 0; pass <= n; pass++ {
		changed := false
		for _, e := range sv.edges {
			w := ceilDiv(e.w+sv.row[e.from]-sv.row[e.to], ii)
			if s[e.to] < s[e.from]+w {
				s[e.to] = s[e.from] + w
				changed = true
			}
		}
		if !changed {
			ok = true
			break
		}
	}
	if !ok {
		return nil
	}
	minS := 0
	for _, v := range s {
		if v < minS {
			minS = v
		}
	}
	sigma := make([]int, n)
	maxSig := 0
	for i := range sigma {
		sigma[i] = ii*(s[i]-minS) + sv.row[i]
		if sigma[i] > maxSig {
			maxSig = sigma[i]
		}
	}
	// Re-check the exact dependence constraints from the original DAG.
	for i := range sv.d.Ops {
		for _, e := range sv.d.Succs[i] {
			if sigma[e.To]+ii*e.Dist < sigma[i]+e.Lat {
				return nil
			}
		}
	}

	// Slot assignment: one exact matching per row, deterministic.
	slot := make([]int, n)
	for i := range slot {
		slot[i] = -1
	}
	for r := 0; r < ii; r++ {
		if !sv.rowFeasibleWith(r, -1) {
			return nil
		}
		for sl, o := range sv.matchOp {
			if o >= 0 && o < n {
				slot[o] = sl
			}
		}
	}
	for i := range slot {
		if slot[i] < 0 {
			return nil
		}
	}
	return &sched.KernelSchedule{
		II:         ii,
		Stages:     maxSig/ii + 1,
		Sigma:      sigma,
		Slot:       slot,
		BranchSlot: sv.branchSlot,
	}
}
