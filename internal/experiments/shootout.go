package experiments

import (
	"context"
	"fmt"
	"strings"

	"lpbuf/internal/core"
	"lpbuf/internal/sched"
)

// ---- Scheduler shoot-out: heuristic IMS vs exact backend ----

// ShootoutRow compares the two modulo-scheduler backends on one
// benchmark's aggressive compile: per-kernel II gap, minimality-proof
// coverage, and the downstream effect on buffer residency at the
// paper's 256-op buffer. Both compiles are verify-checked and both
// simulations are bit-exact against the interpreter before their
// numbers land here (the exact backend additionally forces the verify
// checkpoints on).
type ShootoutRow struct {
	Bench string `json:"bench"`
	// Kernels counts loops the exact backend pipelined; Compared are
	// those pipelined by both backends (the II comparison set).
	Kernels  int `json:"kernels"`
	Compared int `json:"compared"`
	// Proven counts exact kernels whose II was proven minimal
	// in-budget; Fallbacks counts loops where the search budget died
	// and the heuristic schedule was kept.
	Proven    int `json:"proven"`
	Fallbacks int `json:"fallbacks"`
	// Improved counts compared kernels where the exact II is strictly
	// smaller; HeurSumII/OptSumII total the IIs over the compared set.
	Improved  int `json:"improved"`
	HeurSumII int `json:"heur_sum_ii"`
	OptSumII  int `json:"opt_sum_ii"`
	// SearchNodes totals exact-search nodes over the compile.
	SearchNodes int64 `json:"search_nodes"`
	// 256-op buffer outcomes per backend.
	HeurCycles    int64   `json:"heur_cycles"`
	OptCycles     int64   `json:"opt_cycles"`
	HeurBufferPct float64 `json:"heur_buffer_pct"`
	OptBufferPct  float64 `json:"opt_buffer_pct"`
	HeurStaticOps int     `json:"heur_static_ops"`
	OptStaticOps  int     `json:"opt_static_ops"`
}

// kernelIIs extracts a compile's pipelined kernels keyed func/block.
func kernelIIs(c *core.Compiled) map[string]*sched.BlockCode {
	out := map[string]*sched.BlockCode{}
	for name, fc := range c.Code.Funcs {
		for _, sec := range fc.Sections {
			if sec.Kind == sched.KindKernel {
				out[fmt.Sprintf("%s/B%d", name, sec.Block)] = sec
			}
		}
	}
	return out
}

// shootoutRow reduces one benchmark's two compiles and 256-op runs.
func shootoutRow(name string, heurC, optC *core.Compiled, heur, opt *Run) ShootoutRow {
	row := ShootoutRow{
		Bench:         name,
		Fallbacks:     optC.Stats.SchedFallbacks,
		SearchNodes:   optC.Stats.SchedNodes,
		HeurCycles:    heur.Stats.Cycles,
		OptCycles:     opt.Stats.Cycles,
		HeurBufferPct: 100 * heur.Stats.BufferIssueRatio(),
		OptBufferPct:  100 * opt.Stats.BufferIssueRatio(),
		HeurStaticOps: heur.StaticOps,
		OptStaticOps:  opt.StaticOps,
	}
	hk, ok := kernelIIs(heurC), kernelIIs(optC)
	for key, o := range ok {
		row.Kernels++
		if o.Proven {
			row.Proven++
		}
		h, both := hk[key]
		if !both {
			continue
		}
		row.Compared++
		row.HeurSumII += h.II
		row.OptSumII += o.II
		if o.II < h.II {
			row.Improved++
		}
	}
	return row
}

// Shootout computes the scheduler shoot-out figure over all benchmarks
// (aggressive pipeline, heuristic vs exact backend, 256-op buffer).
func (s *Suite) Shootout() ([]ShootoutRow, error) {
	return s.ShootoutCtx(context.Background())
}

// ShootoutCtx is Shootout with caller-controlled cancellation.
func (s *Suite) ShootoutCtx(ctx context.Context) ([]ShootoutRow, error) {
	pairs, err := s.runPairs(ctx, "aggressive", "aggressive-optimal")
	if err != nil {
		return nil, err
	}
	var rows []ShootoutRow
	for b, name := range Benchmarks() {
		h, o := pairs[b][0], pairs[b][1]
		rows = append(rows, shootoutRow(name, h.c, o.c, h.r, o.r))
	}
	return rows, nil
}

// RenderShootout formats the shoot-out comparison.
func RenderShootout(rows []ShootoutRow) string {
	var sb strings.Builder
	sb.WriteString("Scheduler shoot-out: heuristic IMS vs exact backend (aggressive, 256-op buffer)\n")
	fmt.Fprintf(&sb, "%-10s %7s %7s %6s %5s %9s %9s %9s %9s\n",
		"bench", "kernels", "proven", "II gap", "impr", "buf heur", "buf opt", "cyc heur", "cyc opt")
	kernels, proven, gap, improved, fallbacks := 0, 0, 0, 0, 0
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %7d %7d %6d %5d %8.1f%% %8.1f%% %9d %9d\n",
			r.Bench, r.Kernels, r.Proven, r.HeurSumII-r.OptSumII, r.Improved,
			r.HeurBufferPct, r.OptBufferPct, r.HeurCycles, r.OptCycles)
		kernels += r.Kernels
		proven += r.Proven
		gap += r.HeurSumII - r.OptSumII
		improved += r.Improved
		fallbacks += r.Fallbacks
	}
	if kernels > 0 {
		fmt.Fprintf(&sb, "total: %d kernels, %d proven minimal (%.0f%%), II gap %d over %d improved loops, %d budget fallbacks\n",
			kernels, proven, 100*float64(proven)/float64(kernels), gap, improved, fallbacks)
	}
	return sb.String()
}
