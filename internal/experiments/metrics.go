package experiments

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"

	"lpbuf/internal/obs"
	"lpbuf/internal/power"
	"lpbuf/internal/runner"
)

// MetricsSchema versions the JSON snapshot written by
// `lpbuf -metrics-out`. Bump on any breaking change (the golden test
// and the CI schema check pin the current shape).
const MetricsSchema = "lpbuf.metrics/v1"

// LoopEnergyRow attributes one buffered loop's runtime behaviour and
// fetch energy within one verified run: buffer hits/misses (operations
// issued from the buffer vs global memory) and their energy split
// under the paper's Cacti model at that run's buffer capacity.
type LoopEnergyRow struct {
	// Run identifies the simulation: "bench/config@bufferOps".
	Run string `json:"run"`
	// Loop is the planned-loop key ("func@startBundle"); Label is the
	// human name from the buffer plan (e.g. "PostFilter:B") when the
	// loop was planned at this capacity.
	Loop  string `json:"loop"`
	Label string `json:"label,omitempty"`
	// BufferHits/BufferMisses split the loop's issued operations by
	// fetch source.
	BufferHits   int64 `json:"buffer_hits"`
	BufferMisses int64 `json:"buffer_misses"`
	Iterations   int64 `json:"iterations"`
	Recordings   int64 `json:"recordings"`
	// Energy is the loop's fetch-energy attribution.
	Energy power.LoopEnergy `json:"energy"`
}

// MetricsDump is the full `-metrics-out` snapshot: the shared
// registry (simulator + runner + compile counters), the runner's
// structured snapshot, and the per-loop buffer/energy attribution of
// every verified run the suite performed.
type MetricsDump struct {
	Schema   string               `json:"schema"`
	Registry obs.RegistrySnapshot `json:"registry"`
	Runner   runner.Snapshot      `json:"runner"`
	Loops    []LoopEnergyRow      `json:"loops,omitempty"`
}

// MetricsDump assembles the snapshot. Rows are sorted (run, then loop
// key) so snapshots diff cleanly regardless of execution order.
func (s *Suite) MetricsDump() *MetricsDump {
	d := &MetricsDump{
		Schema:   MetricsSchema,
		Registry: s.obs.Registry().Snapshot(),
		Runner:   s.metrics.Snapshot(),
		Loops:    s.LoopAttribution(),
	}
	return d
}

// LoopAttribution computes per-loop buffer hit/miss counts and
// fetch-energy attribution for every memoized verified run.
func (s *Suite) LoopAttribution() []LoopEnergyRow {
	model := power.Default()
	var rows []LoopEnergyRow
	for _, r := range s.cc.runs.values() {
		runKey := r.Bench + "/" + r.Config + "@" + strconv.Itoa(r.BufferOps)
		labels := s.loopLabels(r.Bench, r.Config, r.BufferOps)
		for key, ls := range r.Stats.Loops {
			rows = append(rows, LoopEnergyRow{
				Run:          runKey,
				Loop:         key,
				Label:        labels[key],
				BufferHits:   ls.OpsBuffered,
				BufferMisses: ls.OpsMemory,
				Iterations:   ls.Iterations,
				Recordings:   ls.Recordings,
				Energy:       model.Attribute(ls.OpsMemory, ls.OpsBuffered, r.BufferOps),
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Run != rows[j].Run {
			return rows[i].Run < rows[j].Run
		}
		return rows[i].Loop < rows[j].Loop
	})
	return rows
}

// loopLabels maps planned-loop keys to their plan labels for one
// compiled configuration at one capacity (empty on any error: labels
// are cosmetic).
func (s *Suite) loopLabels(bench, cfg string, bufferOps int) map[string]string {
	c, _, err := s.compiled(bench, cfg)
	if err != nil {
		return nil
	}
	plan, err := planFor(c, bufferOps)
	if err != nil {
		return nil
	}
	out := map[string]string{}
	for _, pl := range plan.Loops {
		out[pl.Key()] = pl.Label
	}
	return out
}

// WriteFile writes the dump as indented JSON.
func (d *MetricsDump) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
