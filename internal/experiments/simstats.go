package experiments

import (
	"lpbuf/internal/obs/perfgate"
	"lpbuf/internal/power"
)

// SimStats collects the golden sim-stat baseline document: for every
// benchmark × config, the Figure 7 buffer-issue percentage at each
// size in sizes, plus the 256-op dynamic op counts, fetch split,
// static code size, and Figure 8(b) normalized fetch energy. The
// sweeps run through the Figure 7 loops, so collection is
// parallel and every (bench, config, size) simulation is verified and
// memoized exactly as the figures themselves are.
//
// Everything in the document is a deterministic simulator fact:
// regenerating it on an unchanged tree is byte-identical, which is
// what lets benchdiff and the tier-1 baseline test treat any delta as
// functional drift rather than noise.
func (s *Suite) SimStats(sizes []int) (*perfgate.SimStats, error) {
	out := perfgate.NewSimStats(sizes)
	model := power.Default()
	for _, cfg := range []string{"traditional", "aggressive", "aggressive-optimal"} {
		rows, err := s.Figure7(cfg, sizes)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			st := &perfgate.BenchConfigStats{BufferPct: map[int]float64{}}
			for _, sz := range sizes {
				st.BufferPct[sz] = 100 * row.Ratios[sz]
			}
			r, err := s.RunAt(row.Bench, cfg, 256)
			if err != nil {
				return nil, err
			}
			st.Cycles = r.Stats.Cycles
			st.OpsIssued = r.Stats.OpsIssued
			st.OpsFromBuffer = r.Stats.OpsFromBuffer
			st.MemFetches = r.Stats.OpsIssued - r.Stats.OpsFromBuffer
			st.StaticOps = r.StaticOps
			if out.Benchmarks[row.Bench] == nil {
				out.Benchmarks[row.Bench] = map[string]*perfgate.BenchConfigStats{}
			}
			out.Benchmarks[row.Bench][cfg] = st
		}
	}
	// Normalized fetch energy uses Figure 8(b)'s convention: the
	// baseline is buffer-less issue of the *traditional* code, so every
	// config normalizes against the traditional run's issue count.
	for _, cfgs := range out.Benchmarks {
		tr := cfgs["traditional"]
		if tr == nil {
			continue
		}
		for _, st := range cfgs {
			st.NormFetchEnergy = model.Normalized(st.MemFetches, st.OpsFromBuffer, 256, tr.OpsIssued)
		}
	}
	// Scheduler shoot-out facts (exact backend vs heuristic) ride in
	// the same document so either backend regressing is blocking.
	rows, err := s.Shootout()
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		out.Shootout[r.Bench] = &perfgate.ShootoutStats{
			Kernels:   r.Kernels,
			Compared:  r.Compared,
			Proven:    r.Proven,
			Fallbacks: r.Fallbacks,
			Improved:  r.Improved,
			HeurSumII: r.HeurSumII,
			OptSumII:  r.OptSumII,
		}
	}
	return out, nil
}
