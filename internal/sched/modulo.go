package sched

import (
	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
)

// KernelSchedule is the result of modulo scheduling: an initiation
// interval, per-op flat schedule times sigma (stage = sigma/II,
// cycle-in-kernel = sigma mod II) and slots.
type KernelSchedule struct {
	II     int
	Stages int
	Sigma  []int
	Slot   []int
	// BranchSlot is the slot reserved at cycle II-1 for the loop-back
	// br.cloop (which is excluded from the DAG).
	BranchSlot int
	// Proven marks the II as proven minimal by an exact backend: every
	// II below it was shown infeasible by exhaustive search. The
	// heuristic backend never sets it.
	Proven bool
	// Nodes counts exact-search nodes expended finding (or proving)
	// this schedule; 0 for the heuristic backend.
	Nodes int64
}

// ModuloScheduler abstracts the kernel-scheduler backend so exact
// schedulers (internal/sched/optimal) can be swapped in behind
// Options.Backend. Implementations must honor the same DAG dependence
// semantics as ModuloSchedule — sigma(to) + II*dist >= sigma(from) +
// lat — and the same modulo reservation rules, including the branch
// slot reserved at cycle II-1 for the loop-back branch. A nil result
// means "do not pipeline this loop".
type ModuloScheduler interface {
	ScheduleLoop(d *DAG, m *machine.Desc) *KernelSchedule
}

// heuristicBackend adapts ModuloSchedule (iterative modulo scheduling)
// to the ModuloScheduler interface; it is the default backend.
type heuristicBackend struct{}

func (heuristicBackend) ScheduleLoop(d *DAG, m *machine.Desc) *KernelSchedule {
	return ModuloSchedule(d, m, 0)
}

// Heuristic returns the default iterative-modulo-scheduling backend as
// a ModuloScheduler.
func Heuristic() ModuloScheduler { return heuristicBackend{} }

// MinII returns the initiation interval both scheduler backends start
// from: max(ResMII, RecMII). ResMII comes from unit counts. RecMII is
// the exact recurrence bound, the smallest II at which the dependence
// system alone is feasible (DepFeasible). Below it no schedule keeps
// every edge, and tryII rejects any schedule that breaks one, so no II
// below MinII can succeed.
//
// Feasibility is monotone in II: BuildDAG adds every distance-0 edge
// forward in op order, so every cycle spans distance >= 1 and its
// weight falls as II grows. MinII bisects between ResMII and an II
// that is always feasible: the sum over ops of each op's largest
// out-edge latency, which no simple cycle's latency exceeds.
func MinII(d *DAG, m *machine.Desc) int {
	lo := resMII(d, m)
	if DepFeasible(d, lo) {
		return lo
	}
	hi := 0
	for _, es := range d.Succs {
		top := 0
		for _, e := range es {
			top = max(top, e.Lat)
		}
		hi += top
	}
	for hi-lo > 1 { // lo is infeasible, hi feasible
		mid := lo + (hi-lo)/2
		if DepFeasible(d, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// DepFeasible reports whether the dependence system alone admits a
// schedule at the given II: the constraints sigma(to) >= sigma(from) +
// lat - II*dist form a difference system over flat times, feasible iff
// the edge graph weighted lat - II*dist has no positive cycle
// (Bellman-Ford longest paths).
func DepFeasible(d *DAG, ii int) bool {
	n := len(d.Ops)
	s := make([]int, n)
	for pass := 0; pass <= n; pass++ {
		changed := false
		for i, es := range d.Succs {
			for _, e := range es {
				if w := s[i] + e.Lat - ii*e.Dist; s[e.To] < w {
					s[e.To] = w
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// DefaultMaxII is the II search ceiling both backends use when the
// caller passes maxII <= 0.
func DefaultMaxII(n int) int { return 8*n + 64 }

// ModuloSchedule attempts iterative modulo scheduling (Rau, MICRO-27)
// of a counted-loop body DAG at each II from MinII up to maxII. ops
// must exclude the loop-back branch. Returns nil when no schedule is
// found within the II/budget limits, which includes a MinII above
// maxII.
func ModuloSchedule(d *DAG, m *machine.Desc, maxII int) *KernelSchedule {
	return ModuloScheduleFrom(d, m, MinII(d, m), maxII)
}

// ModuloScheduleFrom is ModuloSchedule with the scan starting at mii,
// which must be MinII(d, m): callers that already computed it for
// their own search pass it instead of paying the bisection again.
func ModuloScheduleFrom(d *DAG, m *machine.Desc, mii, maxII int) *KernelSchedule {
	n := len(d.Ops)
	if n == 0 {
		return nil
	}
	if maxII <= 0 {
		maxII = DefaultMaxII(n)
	}
	for ii := mii; ii <= maxII; ii++ {
		if ks := tryII(d, m, ii); ks != nil {
			return ks
		}
	}
	return nil
}

// resMII lower-bounds II from resource usage.
func resMII(d *DAG, m *machine.Desc) int {
	counts := map[machine.UnitClass]int{}
	for _, op := range d.Ops {
		counts[ir.UnitFor(op)]++
	}
	mii := (len(d.Ops) + m.Width() - 1) / m.Width()
	for cls, cnt := range counts {
		cap := m.CountFor(cls)
		if cls == machine.UnitBranch {
			// One branch-slot cycle per II is reserved for the
			// loop-back branch itself.
			cnt++
		}
		if cap == 0 {
			return 1 << 30
		}
		v := (cnt + cap - 1) / cap
		if v > mii {
			mii = v
		}
	}
	if mii < 1 {
		mii = 1
	}
	return mii
}

// tryII attempts to find a schedule at the given II using the classic
// IMS main loop with eviction.
func tryII(d *DAG, m *machine.Desc, ii int) *KernelSchedule {
	n := len(d.Ops)
	sigma := make([]int, n)
	slot := make([]int, n)
	placedFlag := make([]bool, n)
	lastTried := make([]int, n)
	for i := range sigma {
		sigma[i] = -1
		slot[i] = -1
		lastTried[i] = -1
	}

	// Modulo reservation table: mrt[cycle mod ii][slot] = op or -1.
	mrt := make([][]int, ii)
	for c := range mrt {
		mrt[c] = make([]int, m.Width())
		for s := range mrt[c] {
			mrt[c][s] = -1
		}
	}
	// Reserve a branch slot at cycle ii-1 for the loop-back branch.
	brSlots := m.SlotsFor(machine.UnitBranch)
	branchSlot := brSlots[len(brSlots)-1]
	mrt[ii-1][branchSlot] = 1 << 30

	unsched := make([]int, n)
	for i := range unsched {
		unsched[i] = i
	}
	budget := 24*n + 256

	pickNext := func() int {
		best, bestH := -1, -1
		for _, i := range unsched {
			if d.Height[i] > bestH {
				best, bestH = i, d.Height[i]
			}
		}
		return best
	}
	removeUnsched := func(i int) {
		for k, v := range unsched {
			if v == i {
				unsched = append(unsched[:k], unsched[k+1:]...)
				return
			}
		}
	}
	unplace := func(i int) {
		if !placedFlag[i] {
			return
		}
		mrt[((sigma[i]%ii)+ii)%ii][slot[i]] = -1
		placedFlag[i] = false
		unsched = append(unsched, i)
	}

	for len(unsched) > 0 {
		if budget--; budget < 0 {
			return nil
		}
		o := pickNext()
		removeUnsched(o)

		// Earliest start from scheduled predecessors.
		estart := 0
		for _, e := range d.Preds[o] {
			p := e.To
			if !placedFlag[p] {
				continue
			}
			if t := sigma[p] + e.Lat - ii*e.Dist; t > estart {
				estart = t
			}
		}
		// Try cycles [estart, estart+ii-1].
		cls := ir.UnitFor(d.Ops[o])
		placedAt := -1
		for t := estart; t < estart+ii; t++ {
			c := ((t % ii) + ii) % ii
			s := freeSlotMRT(mrt[c], m, cls)
			if s >= 0 {
				sigma[o], slot[o] = t, s
				mrt[c][s] = o
				placedFlag[o] = true
				placedAt = t
				break
			}
		}
		if placedAt < 0 {
			// Forced placement with eviction.
			t := estart
			if lastTried[o] >= 0 && t <= lastTried[o] {
				t = lastTried[o] + 1
			}
			c := ((t % ii) + ii) % ii
			s := evictSlotMRT(mrt, c, m, cls, d)
			if s < 0 {
				return nil // no slot of this class exists
			}
			if v := mrt[c][s]; v >= 0 && v < n {
				unplace(v)
			}
			sigma[o], slot[o] = t, s
			mrt[c][s] = o
			placedFlag[o] = true
			placedAt = t
		}
		lastTried[o] = placedAt

		// Evict scheduled successors whose constraints are now violated.
		for _, e := range d.Succs[o] {
			q := e.To
			if !placedFlag[q] || q == o {
				continue
			}
			if sigma[q]+ii*e.Dist < sigma[o]+e.Lat {
				unplace(q)
			}
		}
		// And scheduled predecessors (eviction may have moved o early).
		for _, e := range d.Preds[o] {
			p := e.To
			if !placedFlag[p] || p == o {
				continue
			}
			if sigma[o]+ii*e.Dist < sigma[p]+e.Lat {
				unplace(p)
			}
		}
	}

	// Normalize sigma to start at 0.
	min := sigma[0]
	for _, s := range sigma {
		if s < min {
			min = s
		}
	}
	maxS := 0
	for i := range sigma {
		sigma[i] -= min
		if sigma[i] > maxS {
			maxS = sigma[i]
		}
	}
	// Re-derive slots' cycle residues after normalization: residues are
	// preserved only if min % ii == 0; rebuild the MRT check instead.
	if min%ii != 0 {
		// Shift changes residues; verify no slot conflicts remain.
		check := make([][]bool, ii)
		for c := range check {
			check[c] = make([]bool, m.Width())
		}
		check[ii-1][branchSlot] = true
		for i := range sigma {
			c := sigma[i] % ii
			if check[c][slot[i]] {
				return nil // should not happen; bail to next II
			}
			check[c][slot[i]] = true
		}
	}
	// Final sanity: all dependence constraints hold.
	for i := range d.Ops {
		for _, e := range d.Succs[i] {
			if sigma[e.To]+ii*e.Dist < sigma[i]+e.Lat {
				return nil
			}
		}
	}
	return &KernelSchedule{
		II:         ii,
		Stages:     maxS/ii + 1,
		Sigma:      sigma,
		Slot:       slot,
		BranchSlot: branchSlot,
	}
}

func freeSlotMRT(row []int, m *machine.Desc, cls machine.UnitClass) int {
	best, bestClasses := -1, 1<<30
	for _, s := range m.SlotsFor(cls) {
		if row[s] != -1 {
			continue
		}
		if n := len(m.Slots[s].Classes); n < bestClasses {
			best, bestClasses = s, n
		}
	}
	return best
}

// evictSlotMRT chooses a slot of the class at cycle c whose current
// occupant has the lowest priority (height); reserved cells (1<<30)
// are never evicted.
func evictSlotMRT(mrt [][]int, c int, m *machine.Desc, cls machine.UnitClass, d *DAG) int {
	// SlotsFor returns slots in ascending order (and the slice is
	// shared — it must not be sorted in place).
	cands := m.SlotsFor(cls)
	best, bestH := -1, 1<<30
	for _, s := range cands {
		v := mrt[c][s]
		if v == 1<<30 {
			continue
		}
		if v == -1 {
			return s
		}
		if d.Height[v] < bestH {
			best, bestH = s, d.Height[v]
		}
	}
	return best
}
