package experiments

import (
	"fmt"
	"strings"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/machine"
)

// WidthRow reports one benchmark at one issue width.
type WidthRow struct {
	Bench       string
	Width       int
	Cycles      int64
	BufferRatio float64
}

// WidthSweep runs a benchmark (aggressive config, 256-op buffer) on
// the 2-, 4- and 8-wide machine variants: an extension experiment in
// the direction of the paper's clustering/scalability remarks — the
// loop buffer's fetch benefit is width-independent while the cycle
// count scales with issue resources.
func (s *Suite) WidthSweep(benchName string) ([]WidthRow, error) {
	b, ok := suite.ByName(benchName)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", benchName)
	}
	prog := b.Build()
	var rows []WidthRow
	for _, m := range []*machine.Desc{machine.Two(), machine.Four(), machine.Default()} {
		cfg := core.Aggressive(256)
		cfg.Name = m.Name
		cfg.Machine = m
		cfg.Verify = s.verify
		c, err := s.compileShared(benchName, prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", benchName, m.Name, err)
		}
		res, err := c.Run()
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", benchName, m.Name, err)
		}
		if err := b.Check(res.Mem); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", benchName, m.Name, err)
		}
		rows = append(rows, WidthRow{Bench: benchName, Width: m.Width(),
			Cycles: res.Stats.Cycles, BufferRatio: res.Stats.BufferIssueRatio()})
	}
	return rows, nil
}

// RenderWidths formats the sweep.
func RenderWidths(benchName string, rows []WidthRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Issue-width sensitivity: %s (aggressive, 256-op buffer)\n", benchName)
	fmt.Fprintf(&sb, "%6s %12s %10s %10s\n", "width", "cycles", "vs 8-wide", "buffer")
	base := rows[len(rows)-1].Cycles
	for _, r := range rows {
		fmt.Fprintf(&sb, "%6d %12d %9.2fx %9.1f%%\n",
			r.Width, r.Cycles, float64(r.Cycles)/float64(base), 100*r.BufferRatio)
	}
	return sb.String()
}
