package main

import (
	"time"

	"lpbuf/internal/experiments"
	"lpbuf/internal/obs"
)

// backends are the shoot-out's two scheduler configurations.
var backends = []string{"aggressive", "aggressive-optimal"}

// setupShootout prepares the exact-scheduler workload. Its inputs are
// the fixed Table 1 programs, so the seed changes nothing.
func setupShootout(cfg *config) (instance, error) {
	if err := registry(cfg); err != nil {
		return nil, err
	}
	p := &inProcess{cfg: cfg, ops: len(experiments.Benchmarks()) * len(backends)}
	for _, b := range experiments.Benchmarks() {
		for _, c := range backends {
			p.opKeys = append(p.opKeys, [2]string{b, c})
			p.simOps += cfg.base.Benchmarks[b][c].OpsIssued
			p.plans++
		}
	}
	p.report = append(p.report, "inputs: the fixed Table 1 programs (the seed varies nothing)")
	p.interpConfigs = backends
	// firstNodes holds each benchmark's exact-search node count from the
	// first round: claims on this workload rest on it repeating exactly.
	var firstNodes map[string]int64
	p.round = func(o *obs.Obs) (*roundResult, error) {
		// One runner worker: two g724 exact searches are half a round's
		// work, so with two workers the round wall is a makespan set by
		// whichever core the host slows more. On a 2-core host whose
		// speed moves between minutes-long states, 8 interleaved pairs
		// of runs spread 0.10 (IQR/median) with one worker and 0.15
		// with two.
		s := experiments.NewWithOptions(experiments.Options{Workers: 1, Verify: true, Obs: o})
		rr := &roundResult{chk: &checker{base: cfg.base}}
		start := time.Now()
		rows, err := s.Shootout()
		rr.wall = time.Since(start)
		rr.snap = s.Metrics()
		if err != nil {
			rr.chk.addf("", "shootout: %v", err)
			return rr, nil
		}
		rr.chk.artifact(&experiments.Artifact{Shootout: rows})
		nodes := map[string]int64{}
		for _, r := range rows {
			nodes[r.Bench] = r.SearchNodes
			if want, ok := firstNodes[r.Bench]; ok && r.SearchNodes != want {
				rr.chk.addf(r.Bench+"/aggressive-optimal", "shootout %s: %d search nodes, first round %d",
					r.Bench, r.SearchNodes, want)
			}
			rr.nodes += r.SearchNodes
			rr.fallbacks += int64(r.Fallbacks)
			rr.proven += r.Proven
			rr.kernels += r.Kernels
		}
		if rr.kernels == 0 {
			rr.chk.addf("", "shootout: no kernels")
		}
		if firstNodes == nil {
			firstNodes = nodes
		}
		return rr, nil
	}
	return p, nil
}
