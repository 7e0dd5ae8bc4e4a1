package main

import (
	"fmt"
	"math"
	"slices"

	"lpbuf/internal/experiments"
	"lpbuf/internal/obs/perfgate"
)

// problem is one failed check. key names what it concerns:
// "bench/config", a bare benchmark name (both configs), or "" (the
// whole result).
type problem struct{ key, msg string }

// checker verifies results against baselines/simstats.json, the
// repository's golden simulator statistics (read-only here).
type checker struct {
	base     *perfgate.SimStats
	problems []problem
}

func (c *checker) addf(key, format string, args ...any) {
	c.problems = append(c.problems, problem{key, fmt.Sprintf(format, args...)})
}

// stats returns the baseline of one benchmark and config.
func (c *checker) stats(bench, cfg string) *perfgate.BenchConfigStats {
	return c.base.Benchmarks[bench][cfg]
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// fails reports whether a problem concerns bench/cfg.
func (c *checker) fails(bench, cfg string) bool {
	for _, p := range c.problems {
		if p.key == "" || p.key == bench || p.key == bench+"/"+cfg {
			return true
		}
	}
	return false
}

// run checks one verified 256-op run against its baseline counts.
func (c *checker) run(r *experiments.Run) {
	key := r.Bench + "/" + r.Config
	want := c.stats(r.Bench, r.Config)
	if want == nil {
		c.addf(key, "%s: no baseline", key)
		return
	}
	got := r.Stats
	if got.Cycles != want.Cycles || got.OpsIssued != want.OpsIssued ||
		got.OpsFromBuffer != want.OpsFromBuffer || r.StaticOps != want.StaticOps {
		c.addf(key, "%s@256: cycles/ops_issued/ops_from_buffer/static_ops %d/%d/%d/%d, baseline %d/%d/%d/%d",
			key, got.Cycles, got.OpsIssued, got.OpsFromBuffer, r.StaticOps,
			want.Cycles, want.OpsIssued, want.OpsFromBuffer, want.StaticOps)
	}
}

// artifact checks every section present in a decoded artifact:
// baseline-covered values exactly (to float rounding), the rest for
// shape and range.
func (c *checker) artifact(a *experiments.Artifact) {
	names := experiments.Benchmarks()
	if a.Benchmarks != nil && !slices.Equal(a.Benchmarks, names) {
		c.addf("", "artifact benchmarks %v, want %v", a.Benchmarks, names)
	}
	for cfg, rows := range a.Figure7 {
		c.figure7(cfg, rows, a.BufferSizes)
	}
	if a.Figure8a != nil {
		c.figure8a(a.Figure8a)
	}
	if a.Figure8b != nil {
		c.figure8b(a.Figure8b)
	}
	if a.Headline != nil {
		c.headline(a.Headline)
	}
	if a.Shootout != nil {
		c.shootout(a.Shootout)
	}
	if a.Figure3 != nil && (a.Figure3.TotalLoops <= 0 || a.Figure3.PredicatedLoops > a.Figure3.TotalLoops) {
		c.addf("", "figure 3: %d loops, %d predicated", a.Figure3.TotalLoops, a.Figure3.PredicatedLoops)
	}
	for _, f := range a.Figure5 {
		if f == nil || len(f.Loops) == 0 {
			c.addf("g724dec/aggressive", "figure 5: no post-filter loops")
			continue
		}
		if want := c.stats("g724dec", "aggressive"); want != nil {
			if pct, ok := want.BufferPct[f.BufferOps]; ok && !near(100*f.TotalIssueFromBuffer, pct) {
				c.addf("g724dec/aggressive", "figure 5 @%d: buffer issue %.6f%%, baseline %.6f%%",
					f.BufferOps, 100*f.TotalIssueFromBuffer, pct)
			}
		}
	}
	if a.Encoding != nil {
		if len(a.Encoding) != len(names) {
			c.addf("", "encoding: %d rows, want %d", len(a.Encoding), len(names))
		}
		for _, r := range a.Encoding {
			if want := c.stats(r.Bench, "aggressive"); want == nil || r.StaticOps != want.StaticOps {
				c.addf(r.Bench+"/aggressive", "encoding %s: static ops %d differ from baseline", r.Bench, r.StaticOps)
			}
		}
	}
}

// figure7 checks one config's curves: one row per benchmark in table
// order, a ratio in [0, 1] at every requested size, and the baseline's
// percentage wherever the baseline measured that size.
func (c *checker) figure7(cfg string, rows []experiments.Fig7Row, sizes []int) {
	names := experiments.Benchmarks()
	if len(rows) != len(names) {
		c.addf("", "figure 7 %s: %d rows, want %d", cfg, len(rows), len(names))
		return
	}
	for i, row := range rows {
		key := names[i] + "/" + cfg
		if row.Bench != names[i] {
			c.addf(key, "figure 7 %s row %d: bench %q, want %q", cfg, i, row.Bench, names[i])
			continue
		}
		if len(row.Ratios) != len(sizes) {
			c.addf(key, "figure 7 %s: %d sizes, want %d", key, len(row.Ratios), len(sizes))
		}
		want := c.stats(row.Bench, cfg)
		for _, sz := range sizes {
			r, ok := row.Ratios[sz]
			if !ok || r < 0 || r > 1 || math.IsNaN(r) {
				c.addf(key, "figure 7 %s@%d: ratio %v", key, sz, r)
				continue
			}
			if want == nil {
				c.addf(key, "figure 7 %s: no baseline", key)
				break
			}
			if pct, ok := want.BufferPct[sz]; ok && !near(100*r, pct) {
				c.addf(key, "figure 7 %s@%d: %.9f%%, baseline %.9f%%", key, sz, 100*r, pct)
			}
		}
	}
}

// pair returns the two 256-op baselines of a benchmark.
func (c *checker) pair(bench string) (tr, ag *perfgate.BenchConfigStats, ok bool) {
	tr, ag = c.stats(bench, "traditional"), c.stats(bench, "aggressive")
	if tr == nil || ag == nil {
		c.addf(bench, "%s: no baseline pair", bench)
		return nil, nil, false
	}
	return tr, ag, true
}

func (c *checker) figure8a(rows []experiments.Fig8aRow) {
	if len(rows) != len(experiments.Benchmarks()) {
		c.addf("", "figure 8a: %d rows", len(rows))
	}
	for _, r := range rows {
		tr, ag, ok := c.pair(r.Bench)
		if !ok {
			continue
		}
		want := experiments.Fig8aRow{
			Bench:      r.Bench,
			Speedup:    float64(tr.Cycles) / float64(ag.Cycles),
			CodeSize:   float64(ag.StaticOps) / float64(tr.StaticOps),
			TotalFetch: float64(ag.OpsIssued) / float64(tr.OpsIssued),
			MemFetch:   float64(ag.MemFetches) / float64(tr.MemFetches),
		}
		if !near(r.Speedup, want.Speedup) || !near(r.CodeSize, want.CodeSize) ||
			!near(r.TotalFetch, want.TotalFetch) || !near(r.MemFetch, want.MemFetch) {
			c.addf(r.Bench, "figure 8a %s: %+v, baseline %+v", r.Bench, r, want)
		}
	}
}

func (c *checker) figure8b(rows []experiments.Fig8bRow) {
	if len(rows) != len(experiments.Benchmarks()) {
		c.addf("", "figure 8b: %d rows", len(rows))
	}
	for _, r := range rows {
		tr, ag, ok := c.pair(r.Bench)
		if !ok {
			continue
		}
		if !near(r.BaselineBuffered, tr.NormFetchEnergy) || !near(r.TransformedBuffered, ag.NormFetchEnergy) {
			c.addf(r.Bench, "figure 8b %s: %.9f/%.9f, baseline %.9f/%.9f", r.Bench,
				r.BaselineBuffered, r.TransformedBuffered, tr.NormFetchEnergy, ag.NormFetchEnergy)
		}
	}
}

// expectedHeadline derives the abstract's aggregates from the
// baseline the way experiments.ComputeHeadline reduces runs: buffer
// issue excludes jpegenc and mpeg2enc (the paper's footnote 1).
func (c *checker) expectedHeadline() (*experiments.Headline, bool) {
	h := &experiments.Headline{}
	names := experiments.Benchmarks()
	n := 0
	for _, name := range names {
		tr, ag, ok := c.pair(name)
		if !ok {
			return nil, false
		}
		h.AvgSpeedup += float64(tr.Cycles) / float64(ag.Cycles)
		if name != "jpegenc" && name != "mpeg2enc" {
			h.BufferIssueTraditional += float64(tr.OpsFromBuffer) / float64(tr.OpsIssued)
			h.BufferIssueAggressive += float64(ag.OpsFromBuffer) / float64(ag.OpsIssued)
			n++
		}
		h.FetchPowerBaseline += tr.NormFetchEnergy
		h.FetchPowerTransformed += ag.NormFetchEnergy
	}
	h.BufferIssueTraditional /= float64(n)
	h.BufferIssueAggressive /= float64(n)
	h.AvgSpeedup /= float64(len(names))
	h.FetchPowerBaseline /= float64(len(names))
	h.FetchPowerTransformed /= float64(len(names))
	return h, true
}

func (c *checker) headline(h *experiments.Headline) {
	want, ok := c.expectedHeadline()
	if !ok {
		return
	}
	if !near(h.AvgSpeedup, want.AvgSpeedup) ||
		!near(h.BufferIssueTraditional, want.BufferIssueTraditional) ||
		!near(h.BufferIssueAggressive, want.BufferIssueAggressive) ||
		!near(h.FetchPowerBaseline, want.FetchPowerBaseline) ||
		!near(h.FetchPowerTransformed, want.FetchPowerTransformed) {
		c.addf("", "headline %+v, baseline %+v", *h, *want)
	}
}

// shootout checks each row against the baseline's shoot-out section
// and both backends' 256-op cycle counts and code sizes.
func (c *checker) shootout(rows []experiments.ShootoutRow) {
	if len(rows) != len(experiments.Benchmarks()) {
		c.addf("", "shootout: %d rows", len(rows))
	}
	for _, r := range rows {
		want := c.base.Shootout[r.Bench]
		heur, opt := c.stats(r.Bench, "aggressive"), c.stats(r.Bench, "aggressive-optimal")
		if want == nil || heur == nil || opt == nil {
			c.addf(r.Bench, "shootout %s: no baseline", r.Bench)
			continue
		}
		got := perfgate.ShootoutStats{Kernels: r.Kernels, Compared: r.Compared, Proven: r.Proven,
			Fallbacks: r.Fallbacks, Improved: r.Improved, HeurSumII: r.HeurSumII, OptSumII: r.OptSumII}
		if got != *want {
			c.addf(r.Bench, "shootout %s: %+v, baseline %+v", r.Bench, got, *want)
		}
		if r.HeurCycles != heur.Cycles || r.OptCycles != opt.Cycles ||
			r.HeurStaticOps != heur.StaticOps || r.OptStaticOps != opt.StaticOps ||
			!near(r.HeurBufferPct, heur.BufferPct[256]) || !near(r.OptBufferPct, opt.BufferPct[256]) {
			c.addf(r.Bench, "shootout %s: cycles %d/%d static %d/%d buffer %.6f/%.6f differ from baseline",
				r.Bench, r.HeurCycles, r.OptCycles, r.HeurStaticOps, r.OptStaticOps, r.HeurBufferPct, r.OptBufferPct)
		}
	}
}

// injectFailure corrupts one benchmark's expected cycle counts, so
// its checks must fail.
func injectFailure(base *perfgate.SimStats) {
	base.Benchmarks["adpcmdec"]["aggressive"].Cycles = -1
	base.Benchmarks["adpcmdec"]["aggressive-optimal"].Cycles = -1
}
