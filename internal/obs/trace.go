package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute (rendered into the trace event's "args").
type Attr struct {
	Key   string
	Value any
}

// traceEvent is one finished span or instant, in Chrome trace-event
// terms: phase "X" (complete) with ts/dur in microseconds.
type traceEvent struct {
	name  string
	tid   int64
	ts    int64 // microseconds since trace start
	dur   int64 // microseconds
	attrs []Attr
}

// Trace collects hierarchical spans. The event store is bounded
// (maxEvents); spans finished past the cap are counted in Dropped and
// discarded, so long sweeps cannot grow the trace without bound.
type Trace struct {
	start   time.Time
	nextTID atomic.Int64
	dropped atomic.Int64

	mu     sync.Mutex
	events []traceEvent
	max    int
}

// DefaultTraceEvents bounds a Trace's stored events.
const DefaultTraceEvents = 1 << 20

// NewTrace creates an empty trace. maxEvents <= 0 uses
// DefaultTraceEvents.
func NewTrace(maxEvents int) *Trace {
	if maxEvents <= 0 {
		maxEvents = DefaultTraceEvents
	}
	return &Trace{start: time.Now(), max: maxEvents}
}

// Dropped reports how many finished spans were discarded after the
// event cap was reached.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Span is one in-progress region of work. A nil Span (from a nil or
// disabled Trace) is a valid no-op: Child, SetAttr and End do nothing
// and allocate nothing.
type Span struct {
	t     *Trace
	name  string
	tid   int64
	start time.Time
	attrs []Attr
}

// StartSpan opens a root span on its own track (Perfetto "thread").
// Returns nil on a nil Trace.
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, tid: t.nextTID.Add(1), start: time.Now()}
}

// Child opens a sub-span on the parent's track; Perfetto nests
// complete events on one track by time containment.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, name: name, tid: s.tid, start: time.Now()}
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, value int) { s.SetAttr(key, int64(value)) }

// End finishes the span and records it in the trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	ev := traceEvent{
		name:  s.name,
		tid:   s.tid,
		ts:    s.start.Sub(s.t.start).Microseconds(),
		dur:   now.Sub(s.start).Microseconds(),
		attrs: s.attrs,
	}
	t := s.t
	t.mu.Lock()
	if len(t.events) < t.max {
		t.events = append(t.events, ev)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.dropped.Add(1)
}

// chromeEvent is the on-disk Chrome trace-event shape.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int64  `json:"tid"`
	// S scopes instant ("i") events; "t" = thread.
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object trace container both chrome://tracing
// and Perfetto load.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process IDs of the exported tracks: host-side spans (wall time) and
// simulator events (cycle time).
const (
	pidHost = 1
	pidSim  = 2
)

// CounterPoint is one observation of a counter track: a value at a
// simulator cycle.
type CounterPoint struct {
	Cycle int64
	Value float64
}

// CounterSeries is one Perfetto counter track (phase "C" events on the
// simulator pid): a named series of cycle-stamped values, optionally
// scoped to one run label so per-plan tracks stay separate in the
// viewer. The sampled-PMU export (internal/obs/pmu) renders fetch
// energy, buffer residency and redirect penalty this way.
type CounterSeries struct {
	Name   string
	Run    string
	Points []CounterPoint
}

// WriteChromeTrace renders the trace (and, when sim is non-nil, the
// simulator event ring) as Chrome trace-event JSON. Host spans land on
// pid 1 with wall-clock microsecond timestamps; simulator events land
// on pid 2 with the cycle number as the timestamp, so Perfetto shows
// cycle-accurate loop-buffer residency.
func WriteChromeTrace(w io.Writer, t *Trace, sim *SimTrace) error {
	return WriteChromeTraceCounters(w, t, sim, nil)
}

// WriteChromeTraceCounters is WriteChromeTrace plus counter tracks
// appended to the simulator pid.
func WriteChromeTraceCounters(w io.Writer, t *Trace, sim *SimTrace, counters []CounterSeries) error {
	file := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		evs := append([]traceEvent(nil), t.events...)
		t.mu.Unlock()
		sort.Slice(evs, func(i, j int) bool { return evs[i].ts < evs[j].ts })
		for _, ev := range evs {
			ce := chromeEvent{Name: ev.name, Ph: "X", Ts: ev.ts, Dur: ev.dur,
				Pid: pidHost, Tid: ev.tid}
			if ce.Dur == 0 {
				ce.Dur = 1 // zero-width events vanish in viewers
			}
			if len(ev.attrs) > 0 {
				ce.Args = make(map[string]any, len(ev.attrs))
				for _, a := range ev.attrs {
					ce.Args[a.Key] = a.Value
				}
			}
			file.TraceEvents = append(file.TraceEvents, ce)
		}
		if d := t.Dropped(); d > 0 {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: "trace: dropped spans", Ph: "X", Ts: 0, Dur: 1,
				Pid: pidHost, Tid: 0, Args: map[string]any{"dropped": d}})
		}
	}
	if sim != nil {
		file.TraceEvents = append(file.TraceEvents, sim.chromeEvents()...)
	}
	// Counter tracks land on the simulator pid: phase "C" events whose
	// single "value" arg Perfetto plots as a per-(name, tid) graph. The
	// run label is folded into the name so per-plan tracks of a sweep
	// do not merge into one series.
	for i, cs := range counters {
		name := cs.Name
		if cs.Run != "" {
			name = cs.Name + " " + cs.Run
		}
		tid := int64(1000 + i)
		for _, p := range cs.Points {
			file.TraceEvents = append(file.TraceEvents, chromeEvent{
				Name: name, Ph: "C", Ts: p.Cycle, Pid: pidSim, Tid: tid,
				Args: map[string]any{"value": p.Value},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// WriteChromeTraceFile is WriteChromeTrace to a file path.
func WriteChromeTraceFile(path string, t *Trace, sim *SimTrace) error {
	return WriteChromeTraceCountersFile(path, t, sim, nil)
}

// WriteChromeTraceCountersFile is WriteChromeTraceCounters to a file
// path.
func WriteChromeTraceCountersFile(path string, t *Trace, sim *SimTrace, counters []CounterSeries) error {
	f, err := createFile(path)
	if err != nil {
		return err
	}
	if err := WriteChromeTraceCounters(f, t, sim, counters); err != nil {
		f.Close()
		return fmt.Errorf("obs: writing trace: %w", err)
	}
	return f.Close()
}
