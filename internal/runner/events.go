package runner

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType discriminates runner events.
type EventType string

// The event stream's entry types.
const (
	EventStart EventType = "start"
	EventDone  EventType = "done"
	EventFail  EventType = "fail"
)

// Event is one entry of the runner's structured event stream.
type Event struct {
	Time     time.Time
	Type     EventType
	Key      string
	Kind     Kind
	Elapsed  time.Duration // job wall time (EventDone, EventFail)
	InFlight int           // jobs in flight including this one (EventStart)
	Err      string
}

// LogObserver returns an observer that writes one human-readable
// progress line per event, serialized across worker goroutines.
func LogObserver(w io.Writer) func(Event) {
	var mu sync.Mutex
	return func(e Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Type {
		case EventStart:
			fmt.Fprintf(w, "[runner] start %-8s %-36s (in flight %d)\n", e.Kind, e.Key, e.InFlight)
		case EventDone:
			fmt.Fprintf(w, "[runner] done  %-8s %-36s %s\n", e.Kind, e.Key, e.Elapsed.Round(time.Millisecond))
		case EventFail:
			fmt.Fprintf(w, "[runner] FAIL  %-8s %-36s %s: %s\n", e.Kind, e.Key, e.Elapsed.Round(time.Millisecond), e.Err)
		}
	}
}
