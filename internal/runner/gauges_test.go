package runner

import (
	"context"
	"errors"
	"testing"

	"lpbuf/internal/obs"
)

// gauges reads the runner.jobs_in_flight and runner.queue_depth gauges.
func gauges(reg *obs.Registry) (inFlight, queued float64) {
	g := reg.Snapshot().Gauges
	return g["runner.jobs_in_flight"], g["runner.queue_depth"]
}

// TestQueueAndInFlightGauges tracks the runner.queue_depth and
// runner.jobs_in_flight gauges through a loop: tasks waiting for a
// worker count as queued, a running job counts as in flight, and both
// gauges settle to zero when the loop completes.
func TestQueueAndInFlightGauges(t *testing.T) {
	m := NewMetrics()
	r := New(1, m, nil, nil)

	gate := make(chan struct{})
	seen := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- r.Each(context.Background(), 2, func(i int) error {
			return r.Job(KindCompile, "slow", func() error {
				if i == 0 {
					close(seen)
					<-gate
				}
				return nil
			})
		})
	}()
	<-seen
	// One job is executing; the other task waits for the only worker.
	if inFlight, queued := gauges(m.Registry()); inFlight != 1 || queued != 1 {
		t.Errorf("mid-run gauges: jobs_in_flight=%v queue_depth=%v, want 1/1", inFlight, queued)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if inFlight, queued := gauges(m.Registry()); inFlight != 0 || queued != 0 {
		t.Fatalf("gauges did not settle: jobs_in_flight=%v queue_depth=%v", inFlight, queued)
	}
}

// TestQueueGaugeDrainsOnFailure proves tasks that never start leave the
// queue gauge when a loop aborts, so it shows no phantom depth.
func TestQueueGaugeDrainsOnFailure(t *testing.T) {
	m := NewMetrics()
	r := New(1, m, nil, nil)
	err := r.Each(context.Background(), 3, func(i int) error {
		return r.Job(KindCompile, "boom", func() error { return errors.New("kaboom") })
	})
	if err == nil {
		t.Fatal("failing loop succeeded")
	}
	if inFlight, queued := gauges(m.Registry()); inFlight != 0 || queued != 0 {
		t.Fatalf("gauges after a failed loop: jobs_in_flight=%v queue_depth=%v, want 0/0", inFlight, queued)
	}
}

// TestGaugeAdd exercises the obs.Gauge delta path that runners rely on
// when their Metrics share one registry: each runner's waiting tasks
// add to the one queue_depth gauge.
func TestGaugeAdd(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	var started, done [2]chan struct{}
	for k := range 2 {
		r := New(1, NewMetricsIn(reg), nil, nil)
		started[k], done[k] = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done[k])
			_ = r.Each(context.Background(), 3, func(i int) error {
				if i == 0 {
					close(started[k])
				}
				<-gate
				return nil
			})
		}()
	}
	<-started[0]
	<-started[1]
	if _, queued := gauges(reg); queued != 4 {
		t.Fatalf("shared queue_depth gauge = %v, want 4", queued)
	}
	close(gate)
	<-done[0]
	<-done[1]
	if _, queued := gauges(reg); queued != 0 {
		t.Fatalf("shared queue_depth gauge = %v after both loops, want 0", queued)
	}
}
