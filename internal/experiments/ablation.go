package experiments

import (
	"fmt"
	"strings"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
)

// AblationRow reports the effect of disabling one transformation while
// keeping the rest of the aggressive pipeline.
type AblationRow struct {
	Variant     string
	Cycles      int64
	BufferRatio float64
	StaticOps   int
}

// AblationVariants lists the studied design choices.
var AblationVariants = []string{
	"full", "no-modulo", "no-collapse", "no-peel", "no-unroll", "no-combine",
	"no-promote", "no-predication",
}

// Ablation compiles one benchmark under each variant (256-op buffer).
func (s *Suite) Ablation(benchName string) ([]AblationRow, error) {
	return s.AblationBackend(benchName, "")
}

// AblationBackend is Ablation with an explicit modulo-scheduler
// backend ("" or "heuristic" for IMS, "optimal" for the exact search).
func (s *Suite) AblationBackend(benchName, backend string) ([]AblationRow, error) {
	b, ok := suite.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	prog := b.Build()
	var rows []AblationRow
	for _, v := range AblationVariants {
		cfg := core.Aggressive(256)
		cfg.Name = v
		cfg.Verify = s.verify
		cfg.SchedBackend = backend
		switch v {
		case "no-modulo":
			cfg.Modulo = false
		case "no-collapse":
			cfg.DisableCollapse = true
		case "no-peel":
			cfg.DisablePeel = true
		case "no-unroll":
			cfg.DisableUnroll = true
		case "no-combine":
			cfg.DisableCombine = true
		case "no-promote":
			cfg.DisablePromote = true
		case "no-predication":
			cfg.Predication = false
			cfg.LoopTransforms = false
		}
		c, err := s.compileShared(benchName, prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", benchName, v, err)
		}
		res, err := c.Run()
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", benchName, v, err)
		}
		if err := b.Check(res.Mem); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", benchName, v, err)
		}
		static := 0
		for _, fc := range c.Code.Funcs {
			static += fc.OpCount()
		}
		rows = append(rows, AblationRow{Variant: v, Cycles: res.Stats.Cycles,
			BufferRatio: res.Stats.BufferIssueRatio(), StaticOps: static})
	}
	return rows, nil
}

// RenderAblation formats the table with deltas against the full
// pipeline.
func RenderAblation(benchName string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: %s (aggressive pipeline, one pass disabled at a time)\n", benchName)
	fmt.Fprintf(&sb, "%-16s %10s %10s %10s %9s\n", "variant", "cycles", "vs full", "buffer", "static")
	base := rows[0]
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-16s %10d %9.2fx %9.1f%% %9d\n",
			r.Variant, r.Cycles, float64(r.Cycles)/float64(base.Cycles),
			100*r.BufferRatio, r.StaticOps)
	}
	return sb.String()
}
