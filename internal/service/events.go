package service

import (
	"sync"
	"time"
)

// Event is one entry of a job's progress stream, serialized over SSE.
// State events mark lifecycle transitions; progress events relay the
// runner's per-job (compile/simulate/analyze) stream.
type Event struct {
	Seq   int64  `json:"seq"`
	Time  string `json:"time"` // RFC 3339, nanoseconds
	Type  string `json:"type"` // "state" or "progress"
	JobID string `json:"job"`
	// State is set on lifecycle events.
	State State `json:"state,omitempty"`
	// Key/Kind identify the runner sub-job on progress events
	// ("simulate/g724dec/aggressive@64", "simulate"); Phase carries the
	// runner event type (start/done/fail).
	Key       string  `json:"key,omitempty"`
	Kind      string  `json:"kind,omitempty"`
	Phase     string  `json:"phase,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Err       string  `json:"err,omitempty"`
	// Dropped is set on synthetic "truncated" marker events: how many of
	// the stream's oldest events were dropped from the replay buffer
	// before this subscriber attached.
	Dropped int64 `json:"dropped,omitempty"`
}

// maxEventHistory bounds per-job replay memory. A full -all job emits a
// few hundred runner events; beyond the cap the oldest are dropped and
// the hub remembers how many, so late subscribers know the stream is
// truncated.
const maxEventHistory = 1024

// eventHub fans one job's events out to any number of SSE subscribers.
// New subscribers first replay buffered history, then receive live
// events in order. Publishing never blocks: a subscriber that cannot
// keep up has events dropped (counted per hub), which keeps one stalled
// client from wedging the job.
type eventHub struct {
	mu      sync.Mutex
	seq     int64
	history []Event
	trimmed int64
	subs    map[chan Event]struct{}
	dropped int64
	closed  bool
}

func newEventHub() *eventHub {
	return &eventHub{subs: map[chan Event]struct{}{}}
}

// publish stamps and delivers an event to history and all subscribers.
// No-op after close.
func (h *eventHub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	e.Seq = h.seq
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	h.history = append(h.history, e)
	if len(h.history) > maxEventHistory {
		trim := len(h.history) - maxEventHistory
		h.history = append(h.history[:0:0], h.history[trim:]...)
		h.trimmed += int64(trim)
	}
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			h.dropped++
		}
	}
}

// subscribe returns a channel that replays history and then follows the
// live stream, plus a cancel function. The channel is closed when the
// hub closes (job reached a terminal state) or on cancel. When history
// has overflowed, the replay is prefixed with a synthetic "truncated"
// marker carrying the drop count, so a late subscriber can tell a
// complete replay from one with a hole at the front.
func (h *eventHub) subscribe() (<-chan Event, func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Capacity covers the full replay (plus marker) and live slack so
	// replay never blocks under the hub lock.
	ch := make(chan Event, len(h.history)+maxEventHistory+1)
	if h.trimmed > 0 && len(h.history) > 0 {
		first := h.history[0]
		ch <- Event{
			// One below the oldest surviving event, so sequence numbers
			// stay strictly increasing through the marker.
			Seq:     first.Seq - 1,
			Time:    first.Time,
			Type:    "truncated",
			JobID:   first.JobID,
			Dropped: h.trimmed,
		}
	}
	for _, e := range h.history {
		ch <- e
	}
	if h.closed {
		close(ch)
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	cancel := func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
	}
	return ch, cancel
}

// close ends the stream: all subscriber channels close after in-order
// delivery, and further publishes are dropped.
func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
	}
	h.subs = map[chan Event]struct{}{}
}

// Dropped reports events lost to slow subscribers.
func (h *eventHub) Dropped() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}
