// Package optimal implements an exact modulo-scheduling backend: a
// constraint-propagating branch-and-bound search that finds a kernel
// schedule at the smallest feasible initiation interval and proves
// that smaller IIs are infeasible.
//
// The search reuses the heuristic backend's constraint model — the
// dependence DAG built by sched.BuildDAG (the same graph
// internal/verify's schedule checker rebuilds to audit straight
// sections) and the machine's slot/unit-class reservation rules,
// including the branch slot reserved at kernel cycle II-1 for the
// loop-back branch. A schedule assigns each op a flat time
// sigma = II*stage + row; the solver branches only over the modulo
// residues ("rows") of the ops, because
//
//   - resource legality depends solely on rows: each kernel row must
//     admit a perfect matching of its ops onto issue slots providing
//     their unit classes, and
//   - once rows are fixed, the dependence constraints
//     sigma(to) + II*dist >= sigma(from) + lat become a difference
//     system over the integer stages,
//     stage(to) - stage(from) >= ceil((lat - II*dist - row(to) + row(from)) / II),
//     which is feasible iff the constraint graph has no
//     positive-weight cycle — checked by Bellman–Ford longest paths
//     with no a-priori bound on the stage count.
//
// This decomposition keeps the search space small (|ops| x II row
// choices) and, unlike horizon-bounded time enumeration, makes an
// exhausted search a sound proof of infeasibility at that II: the
// first feasible II found while scanning upward from sched.MinII is
// therefore provably minimal, as long as no II below it ran out of
// budget.
//
// The search honors a deterministic node budget (and an optional
// wall-clock deadline); when the budget dies before the scan
// completes, the scheduler falls back to the heuristic IMS schedule
// and reports the result as unproven, counting the fallback in the
// observability registry.
package optimal

import (
	"sync/atomic"
	"time"

	"lpbuf/internal/machine"
	"lpbuf/internal/obs"
	"lpbuf/internal/sched"
)

// DefaultNodeBudget bounds the search nodes spent per loop (across all
// IIs tried for that loop). It is deliberately deterministic — two
// runs of the same compile expand the same nodes in the same order —
// so schedules, proofs and fallbacks are reproducible facts the
// sim-stat baselines can gate on. The scan starts at sched.MinII,
// whose exact recurrence bound resolves recurrence-bound loops with
// zero nodes, so the budget only burns on resource/dependence-interplay
// proofs. 5000 nodes prove >90% of the benchmark suite's kernels (the
// bar the corpus test enforces); the worst loop, an 80-op g724 kernel
// that exhausts the budget, takes ~40 ms (BenchmarkExactSearch, ~8 µs
// per node on a 2-core Xeon).
const DefaultNodeBudget = 5000

// maxSearchII caps the II the exact solver will attempt (row domains
// are 64-bit sets); loops needing more fall back to the heuristic.
const maxSearchII = 64

// Options configure a Scheduler.
type Options struct {
	// NodeBudget is the per-loop search-node budget (<=0 uses
	// DefaultNodeBudget).
	NodeBudget int64
	// Timeout, when positive, additionally bounds each loop's search
	// by wall clock. Unlike the node budget it is nondeterministic:
	// the same compile may prove minimality on one machine and fall
	// back on another, so figure and baseline runs leave it zero.
	Timeout time.Duration
	// Obs receives the backend's counters (loops, proven, fallbacks,
	// improved, nodes); nil disables them.
	Obs *obs.Obs
}

// Stats is a snapshot of a Scheduler's aggregate behaviour.
type Stats struct {
	// Loops counts kernels the backend scheduled (non-nil results).
	Loops int64
	// Proven counts kernels whose II was proven minimal in budget.
	Proven int64
	// Improved counts kernels scheduled at a strictly smaller II than
	// the heuristic found.
	Improved int64
	// Fallbacks counts kernels that returned the heuristic schedule
	// unproven because the search budget died.
	Fallbacks int64
	// Nodes totals search nodes expanded.
	Nodes int64
}

// Scheduler is an exact modulo-scheduler backend implementing
// sched.ModuloScheduler. It is safe for concurrent use: per-loop
// search state is local, and aggregate stats are atomic.
type Scheduler struct {
	budget  int64
	timeout time.Duration
	o       *obs.Obs

	loops     atomic.Int64
	proven    atomic.Int64
	improved  atomic.Int64
	fallbacks atomic.Int64
	nodes     atomic.Int64
}

// New creates a Scheduler.
func New(opts Options) *Scheduler {
	b := opts.NodeBudget
	if b <= 0 {
		b = DefaultNodeBudget
	}
	return &Scheduler{budget: b, timeout: opts.Timeout, o: opts.Obs}
}

// Stats snapshots the aggregate counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Loops:     s.loops.Load(),
		Proven:    s.proven.Load(),
		Improved:  s.improved.Load(),
		Fallbacks: s.fallbacks.Load(),
		Nodes:     s.nodes.Load(),
	}
}

// ScheduleLoop finds a kernel schedule for the loop body DAG, scanning
// II upward from sched.MinII and proving each infeasible II by
// exhaustive (budgeted) search. The heuristic IMS schedule serves as
// both the upper bound of the scan and the fallback when the budget
// dies. Returns nil when neither backend can pipeline the loop.
func (s *Scheduler) ScheduleLoop(d *sched.DAG, m *machine.Desc) *sched.KernelSchedule {
	n := len(d.Ops)
	if n == 0 {
		return nil
	}
	// MinII includes the exact recurrence bound: an II whose
	// dependence system alone has a positive cycle needs no search to
	// rule out. The heuristic scan starts there too.
	mii := sched.MinII(d, m)
	heur := sched.ModuloScheduleFrom(d, m, mii, 0)
	// The heuristic schedule is an upper bound: only IIs strictly
	// below it need searching. When the heuristic failed entirely, the
	// exact search covers the whole range.
	upper := sched.DefaultMaxII(n)
	if heur != nil && heur.II-1 < upper {
		upper = heur.II - 1
	}

	var deadline time.Time
	if s.timeout > 0 {
		deadline = time.Now().Add(s.timeout)
	}
	budget := s.budget
	proven := true
	var nodes int64
	var best *sched.KernelSchedule
	for ii := mii; ii <= upper; ii++ {
		if ii > maxSearchII {
			proven = false
			break
		}
		res := solveII(d, m, ii, &budget, deadline)
		nodes += res.nodes
		if res.status == statusSolved {
			best = res.ks
			break
		}
		if res.status == statusExhausted {
			// The budget died before this II was proven infeasible:
			// schedules found at higher IIs are no longer provably
			// minimal.
			proven = false
			if budget <= 0 {
				break
			}
		}
	}

	fallback := false
	switch {
	case best != nil:
		best.Proven = proven
	case heur != nil:
		// Every II below the heuristic's was either proven infeasible
		// (the heuristic is optimal) or the search ran dry (unproven
		// fallback).
		best = heur
		best.Proven = proven
		fallback = !proven
	default:
		// Neither backend pipelines this loop.
		s.nodes.Add(nodes)
		s.o.Counter("sched.optimal.nodes").Add(nodes)
		return nil
	}
	best.Nodes = nodes

	s.loops.Add(1)
	s.nodes.Add(nodes)
	s.o.Counter("sched.optimal.loops").Inc()
	s.o.Counter("sched.optimal.nodes").Add(nodes)
	if best.Proven {
		s.proven.Add(1)
		s.o.Counter("sched.optimal.proven").Inc()
	}
	if fallback {
		s.fallbacks.Add(1)
		s.o.Counter("sched.optimal.fallback").Inc()
	}
	if heur != nil && best.II < heur.II {
		s.improved.Add(1)
		s.o.Counter("sched.optimal.improved").Inc()
	}
	return best
}
