// Package pmu is a sampling performance-monitoring unit for the
// simulated VLIW guest — the software analogue of a hardware PMU's
// cycle counter overflow interrupt. A deterministic sampling clock
// (fixed cycle period plus seeded jitter, so two runs of the same
// program take samples at identical cycles) fires on the simulator's
// issue clock; each sample is attributed to (function, planned loop,
// PC bucket, buffer state) and accumulated per buffer plan, so one
// plan-free execution (vliw.Execute) yields a profile per folded plan
// at a bounded, measurable cost instead of per-event tracing.
//
// The contract that makes this a PMU and not a debug mode: with
// sampling disabled the simulator hot path stays zero-alloc (a nil
// check per bundle), and at the default period the enabled cost is
// bounded: benchdiff's SimsPerSecPMU sampled/unsampled row fails when
// sampling costs more than 10% of the unsampled sweep rate.
//
// Profiles export three ways: a versioned lpbuf.simprofile/v1 JSON
// document, collapsed-stack (flamegraph) text, and Perfetto counter
// tracks appended to the Chrome-trace export (obs.CounterSeries).
package pmu

import (
	"fmt"
	"sort"
)

// DefaultPeriod is the mean cycle distance between samples. At ~2-5M
// guest cycles per sweep run this yields hundreds to low thousands of
// samples per profile — enough for stable per-loop attribution, cheap
// enough to stay inside the ≤10% sims/sec overhead budget.
const DefaultPeriod = 4096

// Config selects the sampling clock parameters. The zero Period means
// "use DefaultPeriod"; a nil *Config anywhere in the pipeline means
// sampling is off entirely.
type Config struct {
	// Period is the mean cycle distance between samples.
	Period int64 `json:"period"`
	// Seed seeds the jitter PRNG (splitmix64). Zero normalizes to 1 so
	// the default config is itself deterministic and serializable.
	Seed uint64 `json:"seed"`
}

// Normalized returns the config with defaults applied.
func (c Config) Normalized() Config {
	if c.Period <= 0 {
		c.Period = DefaultPeriod
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Clock is the deterministic sampling clock. The hot-path question
// "should this issue cycle be sampled" is a single integer compare
// against Next(); the jittered gap to the following sample is drawn
// from a seeded splitmix64 stream only when a sample actually fires,
// so the draw sequence — and therefore every sample cycle — is a pure
// function of (seed, period, the sequence of sampled cycles). Both the
// interpretive loop and the region-replay fast path observe the same
// issue-cycle sequence, so they take identical samples.
type Clock struct {
	period int64
	rng    uint64
	next   int64
}

// NewClock creates a clock from the (normalized) config, with the
// first sample scheduled one jittered gap after cycle zero.
func NewClock(cfg Config) *Clock {
	cfg = cfg.Normalized()
	c := &Clock{period: cfg.Period, rng: cfg.Seed}
	c.next = c.gap()
	return c
}

// Next returns the cycle at or after which the next sample fires.
func (c *Clock) Next() int64 { return c.next }

// Period returns the configured mean period.
func (c *Clock) Period() int64 { return c.period }

// Fire records that a sample was taken at cycle and schedules the
// next one a jittered gap later.
func (c *Clock) Fire(cycle int64) {
	c.next = cycle + c.gap()
}

// gap draws the next inter-sample distance: uniform in
// [period/2, 3*period/2), mean = period, never below 1.
func (c *Clock) gap() int64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	g := c.period/2 + int64(z%uint64(c.period))
	if g < 1 {
		g = 1
	}
	return g
}

// State is the loop-buffer state a sample was taken in, per plan.
type State uint8

const (
	// StateMemory: the sampled bundle issued from global memory outside
	// any planned loop.
	StateMemory State = iota
	// StateRecord: issued from memory inside a planned loop (the
	// buffer is recording or the loop's image is not yet intact).
	StateRecord
	// StateReplay: issued from the loop buffer.
	StateReplay
)

// States is the closed vocabulary the JSON schema admits.
var States = [...]string{StateMemory: "memory", StateRecord: "record", StateReplay: "replay"}

func (s State) String() string {
	if int(s) < len(States) {
		return States[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// PCBucketBits sets the PC-bucket granularity: bundles are bucketed in
// groups of 2^PCBucketBits (8) so profiles of long functions stay
// small while still localizing hot regions well inside a loop body.
const PCBucketBits = 3

// Key is one sample-attribution bucket.
type Key struct {
	// Func is the guest function name.
	Func string
	// Loop is the planned loop's key ("Func@StartBundle"), empty when
	// the sampled PC is outside every planned loop.
	Loop string
	// PCBucket is the sampled bundle index >> PCBucketBits.
	PCBucket int32
	// State is the plan's buffer state at the sampled cycle.
	State State
}

// Point is one counter-track observation: the plan's cumulative
// accounting as of a sample cycle. Values are cumulative so exporters
// can render either levels or per-interval rates.
type Point struct {
	Cycle int64 `json:"cycle"`
	// OpsBuffer / OpsMemory are cumulative operations issued from the
	// loop buffer / from global memory.
	OpsBuffer int64 `json:"ops_buffer"`
	OpsMemory int64 `json:"ops_memory"`
	// RedirectCycles is the plan's cumulative redirect (taken-branch /
	// loop-exit) penalty in cycles.
	RedirectCycles int64 `json:"redirect_cycles"`
}

// maxSeriesPoints bounds a profile's counter-track memory. Past the
// cap, samples keep counting into the attribution map but no further
// points are appended (SeriesTruncated reports how many were dropped).
const maxSeriesPoints = 1 << 16

// cell is one attribution bucket's accumulation: how many samples
// landed in it and the summed issue width (ops in the sampled bundle)
// of those samples. Counts estimate cycles; ops-weighted sums estimate
// fetch work, which is what the energy model prices.
type cell struct {
	count int64
	ops   int64
}

// Profile accumulates one plan's samples over one (or more) runs.
// Methods are not safe for concurrent use; the simulator owns a
// profile for the duration of a run or a fold.
type Profile struct {
	// Label names the run this profile accounts ("bench/config@ops").
	Label string
	// Capacity is the plan's buffer capacity in operations (feeds the
	// fetch-energy counter track through the power model).
	Capacity int
	// Cycles is the accounted run's final cycle count (set by the
	// simulator after the run).
	Cycles int64

	samples         map[Key]cell
	loopLabels      map[string]string
	total           int64
	series          []Point
	seriesTruncated int64
}

// NewProfile creates an empty profile.
func NewProfile(label string, capacity int) *Profile {
	return &Profile{
		Label:      label,
		Capacity:   capacity,
		samples:    map[Key]cell{},
		loopLabels: map[string]string{},
	}
}

// Record attributes one sample. loopKey/loopLabel are empty outside
// planned loops; pc is the sampled bundle index within fn; ops is the
// sampled bundle's issue width (every op in a fetched bundle counts as
// issued, matching Stats.OpsIssued).
func (p *Profile) Record(fn, loopKey, loopLabel string, pc int32, st State, ops int64) {
	k := Key{Func: fn, Loop: loopKey, PCBucket: pc >> PCBucketBits, State: st}
	c := p.samples[k]
	c.count++
	c.ops += ops
	p.samples[k] = c
	p.total++
	if loopKey != "" {
		if _, ok := p.loopLabels[loopKey]; !ok {
			p.loopLabels[loopKey] = loopLabel
		}
	}
}

// Observe appends one counter-track point (cumulative values as of the
// sampled cycle).
func (p *Profile) Observe(cycle, opsBuffer, opsMemory, redirectCycles int64) {
	if len(p.series) >= maxSeriesPoints {
		p.seriesTruncated++
		return
	}
	p.series = append(p.series, Point{
		Cycle:          cycle,
		OpsBuffer:      opsBuffer,
		OpsMemory:      opsMemory,
		RedirectCycles: redirectCycles,
	})
}

// Total returns the number of samples recorded.
func (p *Profile) Total() int64 { return p.total }

// Samples returns the attribution rows, sorted by descending count
// then key (a deterministic order for goldens and diffs).
func (p *Profile) Samples() []SampleRow {
	rows := make([]SampleRow, 0, len(p.samples))
	for k, c := range p.samples {
		rows = append(rows, SampleRow{
			Func:      k.Func,
			Loop:      k.Loop,
			LoopLabel: p.loopLabels[k.Loop],
			PCBucket:  k.PCBucket,
			State:     k.State.String(),
			Count:     c.count,
			Ops:       c.ops,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Loop != b.Loop {
			return a.Loop < b.Loop
		}
		if a.PCBucket != b.PCBucket {
			return a.PCBucket < b.PCBucket
		}
		return a.State < b.State
	})
	return rows
}

// LoopCounts folds the attribution rows to per-loop sample counts
// (key → count, the "" key aggregating samples outside planned loops).
func (p *Profile) LoopCounts() map[string]int64 {
	out := map[string]int64{}
	for k, c := range p.samples {
		out[k.Loop] += c.count
	}
	return out
}

// Equal reports whether two profiles carry identical attribution —
// the differential property pinning interpretive vs fast-path runs.
func (p *Profile) Equal(q *Profile) bool {
	if p.total != q.total || len(p.samples) != len(q.samples) {
		return false
	}
	for k, c := range p.samples {
		if q.samples[k] != c {
			return false
		}
	}
	return true
}

// Merge folds another profile's attribution into p (used when one
// logical run is accounted in pieces). Series points are not merged —
// they are per-execution time series.
func (p *Profile) Merge(q *Profile) {
	if q == nil {
		return
	}
	for k, c := range q.samples {
		m := p.samples[k]
		m.count += c.count
		m.ops += c.ops
		p.samples[k] = m
	}
	for k, v := range q.loopLabels {
		if _, ok := p.loopLabels[k]; !ok {
			p.loopLabels[k] = v
		}
	}
	p.total += q.total
}
