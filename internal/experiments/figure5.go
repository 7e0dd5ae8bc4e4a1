package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"lpbuf/internal/core"
	"lpbuf/internal/loopbuffer"
	"lpbuf/internal/vliw"
)

// planFor recomputes the buffer plan for a capacity from the compile's
// loop weights (cheap once a run has measured them).
func planFor(c *core.Compiled, capacity int) (*vliw.BufferPlan, error) {
	w, err := c.Weights()
	if err != nil {
		return nil, err
	}
	return loopbuffer.Plan(c.Code, w, capacity), nil
}

// Fig5Loop is one loop's runtime buffer behaviour at one buffer size.
type Fig5Loop struct {
	Label              string `json:"label"`
	Ops                int    `json:"ops"`
	Offset             int    `json:"offset"`
	Entries            int64  `json:"entries"`
	Iterations         int64  `json:"iterations"`
	BufferedIterations int64  `json:"buffered_iterations"`
	OpsBuffered        int64  `json:"ops_buffered"`
	OpsMemory          int64  `json:"ops_memory"`
}

// Fig5 reports the PostFilter-loop buffer traces for one buffer size
// (the paper's Figure 5 shows 16, 32 and 64 operations).
type Fig5 struct {
	BufferOps int        `json:"buffer_ops"`
	Loops     []Fig5Loop `json:"loops"`
	// PFIssueFromBuffer is the fraction of the traced loops' issued
	// operations served by the buffer.
	PFIssueFromBuffer float64 `json:"pf_issue_from_buffer"`
	// TotalIssueFromBuffer is the whole-benchmark fraction.
	TotalIssueFromBuffer float64 `json:"total_issue_from_buffer"`
}

// Figure5 runs g724dec at the given buffer size (one task recording
// its compile and simulate jobs, through the suite's verified, memoized
// runs) and extracts the post-filter loop traces.
func (s *Suite) Figure5(bufferOps int) (*Fig5, error) {
	var c *core.Compiled
	var r *Run
	err := s.run.Each(context.Background(), 1, func(int) (err error) {
		if c, err = s.compileJob("g724dec", "aggressive"); err != nil {
			return err
		}
		r, err = s.simulateJob("g724dec", "aggressive", bufferOps)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &Fig5{BufferOps: bufferOps,
		TotalIssueFromBuffer: r.Stats.BufferIssueRatio()}

	// Planned loops give footprint/offset; runtime stats give traces.
	// The post filter may have been inlined into main, so match loops
	// by their source block labels rather than by function.
	loops := map[string]Fig5Loop{}
	for key, ls := range r.Stats.Loops {
		loops[key] = Fig5Loop{Label: key,
			Entries: ls.Entries, Iterations: ls.Iterations,
			BufferedIterations: ls.BufferedIterations,
			OpsBuffered:        ls.OpsBuffered, OpsMemory: ls.OpsMemory}
	}
	// Names/footprints from a fresh plan.
	plan, err := planFor(c, bufferOps)
	if err != nil {
		return nil, err
	}
	for _, pl := range plan.Loops {
		if l, ok := loops[pl.Key()]; ok {
			l.Label = pl.Label
			l.Ops = pl.Ops
			l.Offset = pl.Offset
			loops[pl.Key()] = l
		}
	}
	var pfOps, pfBuf int64
	for _, l := range loops {
		if !isPostFilterLoop(l.Label) {
			continue
		}
		out.Loops = append(out.Loops, l)
		pfOps += l.OpsBuffered + l.OpsMemory
		pfBuf += l.OpsBuffered
	}
	sort.Slice(out.Loops, func(i, j int) bool { return out.Loops[i].Label < out.Loops[j].Label })
	if pfOps > 0 {
		out.PFIssueFromBuffer = float64(pfBuf) / float64(pfOps)
	}
	return out, nil
}

// isPostFilterLoop recognizes the post-filter loop labels (B, I1, I2,
// C, D, E, F, G, H1, H2, J, K and their nest sublabels).
func isPostFilterLoop(label string) bool {
	i := strings.LastIndex(label, ":")
	if i < 0 {
		return false
	}
	name := label[i+1:]
	switch name {
	case "B", "I1", "I2", "I3", "D", "G", "Gnewton", "H1", "H2", "J", "K",
		"F", "F2", "C_outer", "E_outer", "C_inner", "E_inner":
		return true
	}
	return false
}

// RenderFig5 formats one buffer-size trace.
func RenderFig5(f *Fig5) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 5: g724dec post-filter loops, %d-operation buffer\n", f.BufferOps)
	fmt.Fprintf(&sb, "%-22s %5s %6s %8s %10s %12s\n",
		"loop", "ops", "off", "entries", "iterations", "buffered")
	for _, l := range f.Loops {
		fmt.Fprintf(&sb, "%-22s %5d %6d %8d %10d %7d/%d\n",
			l.Label, l.Ops, l.Offset, l.Entries, l.Iterations,
			l.BufferedIterations, l.Iterations)
	}
	fmt.Fprintf(&sb, "post-filter loop issue from buffer: %.2f%%\n", 100*f.PFIssueFromBuffer)
	fmt.Fprintf(&sb, "whole-benchmark issue from buffer:  %.2f%%\n", 100*f.TotalIssueFromBuffer)
	fmt.Fprintf(&sb, "(paper, 16/32/64-op buffers: 1.23%% / 6.32%% / 98.22%% of PostFilter instruction issue)\n")
	return sb.String()
}
