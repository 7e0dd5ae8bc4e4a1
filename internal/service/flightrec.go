package service

import (
	"sync"
	"time"
)

// FlightRecSchema versions the /debug/flightrecorder document.
const FlightRecSchema = "lpbuf.flightrec/v1"

// flightRecCapacity bounds the ring. 512 records cover the interesting
// window after an incident (a 429 storm, a drain) without the recorder
// ever growing with load.
const flightRecCapacity = 512

// FlightRecord is one entry of the flight recorder: a job lifecycle
// transition, an admission rejection or a job's panic, stamped in
// arrival order.
type FlightRecord struct {
	Seq  int64  `json:"seq"`
	Time string `json:"time"` // RFC 3339, nanoseconds
	// Kind is "transition" (a job changed state), "rejected" (an
	// admission failure — no job was created) or "panic" (the job's own
	// code panicked; the job then fails).
	Kind    string `json:"kind"`
	JobID   string `json:"job,omitempty"`
	Client  string `json:"client,omitempty"`
	From    State  `json:"from,omitempty"`
	To      State  `json:"to,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Code and Reason describe a rejection (the HTTP status the client
	// saw and why).
	Code   int    `json:"code,omitempty"`
	Reason string `json:"reason,omitempty"`
	// Err carries the failure/cancellation cause on terminal transitions
	// and the panic value on a panic.
	Err string `json:"err,omitempty"`
	// Stack is the panicking goroutine's stack on a panic.
	Stack string `json:"stack,omitempty"`
}

// flightRecorder is a bounded mutex ring of recent FlightRecords — the
// post-mortem buffer served at /debug/flightrecorder. Recording is
// O(1) and never blocks on readers.
type flightRecorder struct {
	mu    sync.Mutex
	buf   []FlightRecord
	next  int   // ring write index
	total int64 // records ever written (== next Seq)
}

func newFlightRecorder(capacity int) *flightRecorder {
	if capacity <= 0 {
		capacity = flightRecCapacity
	}
	return &flightRecorder{buf: make([]FlightRecord, 0, capacity)}
}

// record stamps and stores one record, overwriting the oldest when the
// ring is full.
func (f *flightRecorder) record(rec FlightRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total++
	rec.Seq = f.total
	rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, rec)
		return
	}
	f.buf[f.next] = rec
	f.next = (f.next + 1) % len(f.buf)
}

// records returns up to n retained records, oldest first (n <= 0 means
// all), plus the total ever recorded so readers can tell how much the
// ring has forgotten.
func (f *flightRecorder) records(n int) (total int64, out []FlightRecord) {
	if f == nil {
		return 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out = make([]FlightRecord, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return f.total, out
}
