package experiments

import (
	"context"
	"fmt"
	"strings"

	"lpbuf/internal/core"
	"lpbuf/internal/predicate"
	"lpbuf/internal/runner"
)

// EncodingRow quantifies Section 4's encoding argument for one
// benchmark: full predication spends a guard-register field on every
// operation (3 bits for this machine's 8 predicates; Itanium spends 6,
// inflating operations to 41 bits), while the slot-based scheme spends
// a single sensitivity bit plus occasional replica defines.
type EncodingRow struct {
	Bench string `json:"bench"`
	// StaticOps is the scheduled operation count (aggressive config).
	StaticOps int `json:"static_ops"`
	// Guarded is how many static ops actually carry a guard.
	Guarded int `json:"guarded"`
	// ReplicaDefines is the slot model's extra define cost.
	ReplicaDefines int `json:"replica_defines"`
	// FullBits / SlotBits are total code bits under each encoding.
	FullBits int64 `json:"full_bits"`
	SlotBits int64 `json:"slot_bits"`
}

// guardFieldBits is the per-op cost of a full predication guard field
// for eight predicate registers.
const guardFieldBits = 3

// EncodingCosts compares code size under full vs slot-based
// predication encodings, one task per benchmark: the aggressive
// compile job, then the analysis job.
func (s *Suite) EncodingCosts() ([]EncodingRow, error) {
	names := Benchmarks()
	rows := make([]EncodingRow, len(names))
	err := s.run.Each(context.Background(), len(names), func(i int) error {
		c, err := s.compileJob(names[i], "aggressive")
		if err != nil {
			return err
		}
		return s.run.Job(runner.KindAnalyze, "analyze/encoding/"+names[i], func() error {
			rows[i] = encodingRow(names[i], c)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// encodingRow measures one aggressive compile under both encodings.
func encodingRow(name string, c *core.Compiled) EncodingRow {
	row := EncodingRow{Bench: name}
	for _, fname := range c.Code.Prog.Order {
		fc := c.Code.Funcs[fname]
		for _, sec := range fc.Sections {
			var sops []predicate.SchedOp
			for ci, bun := range sec.Bundles {
				for _, so := range bun.Ops {
					row.StaticOps++
					if so.Op.Guard != 0 {
						row.Guarded++
					}
					sops = append(sops, predicate.SchedOp{Op: so.Op, Cycle: ci, Slot: so.Slot})
				}
			}
			if isLoopSection(fc, sec) {
				bind := predicate.BindSlots(dedupe(sops, sec), 8)
				row.ReplicaDefines += bind.ExtraDefines
			}
		}
	}
	opBits := int64(c.Config.Machine.OpBits)
	row.FullBits = int64(row.StaticOps) * (opBits + guardFieldBits)
	row.SlotBits = int64(row.StaticOps)*(opBits+1) +
		int64(row.ReplicaDefines)*(opBits+1)
	return row
}

// RenderEncoding formats the comparison.
func RenderEncoding(rows []EncodingRow) string {
	var sb strings.Builder
	sb.WriteString("Predication encoding cost (Section 4): full guard fields vs slot model\n")
	fmt.Fprintf(&sb, "%-10s %8s %8s %9s %11s %11s %8s\n",
		"bench", "ops", "guarded", "replicas", "full bits", "slot bits", "saved")
	var tf, ts int64
	for _, r := range rows {
		saved := 100 * (1 - float64(r.SlotBits)/float64(r.FullBits))
		fmt.Fprintf(&sb, "%-10s %8d %8d %9d %11d %11d %7.1f%%\n",
			r.Bench, r.StaticOps, r.Guarded, r.ReplicaDefines,
			r.FullBits, r.SlotBits, saved)
		tf += r.FullBits
		ts += r.SlotBits
	}
	fmt.Fprintf(&sb, "total: %.1f%% of full-predication code bits saved by the slot model\n",
		100*(1-float64(ts)/float64(tf)))
	sb.WriteString("(a 3-bit guard field also halves the addressable register space of a\n")
	sb.WriteString("three-operand 32-bit encoding, which is the paper's core objection)\n")
	return sb.String()
}
