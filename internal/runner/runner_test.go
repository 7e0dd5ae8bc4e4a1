package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrencyBound checks the worker bound holds, including across
// concurrent Each calls sharing one Runner.
func TestConcurrencyBound(t *testing.T) {
	const bound = 3
	r := New(bound, nil, nil, nil)
	var inFlight, peak atomic.Int64
	task := func() error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for e := 0; e < 3; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := r.Each(context.Background(), 10, func(i int) error {
				return r.Job(KindCompile, fmt.Sprintf("e%d/j%d", e, i), task)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("peak in-flight %d exceeds bound %d", p, bound)
	}
	if snap := r.Metrics().Snapshot(); snap.PeakInFlight > bound || snap.JobsRun != 30 || len(snap.Jobs) != 30 {
		t.Fatalf("metrics: %+v", snap)
	}
}

// TestFlightDedup checks that concurrent same-key calls share one
// execution and all observe its result.
func TestFlightDedup(t *testing.T) {
	var f Flight
	var execs atomic.Int64
	release := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := f.Do("key", func() (any, error) {
				execs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Do: %v %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let the goroutines pile up on the key, then release the leader.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times", n)
	}
	if sharedCount.Load() != callers-1 {
		t.Fatalf("%d callers shared", sharedCount.Load())
	}
	// The key is forgotten afterwards: a fresh Do re-executes.
	if _, shared, _ := f.Do("key", func() (any, error) { execs.Add(1); return 0, nil }); shared {
		t.Fatal("fresh call reported shared")
	}
	if execs.Load() != 2 {
		t.Fatal("fresh call did not execute")
	}
}

// TestFlightForgetsPanics checks that a panicking fn releases the
// callers waiting on it with ErrFlightPanicked, re-raises in its own
// caller, and leaves the key free for the next call.
func TestFlightForgetsPanics(t *testing.T) {
	var f Flight
	started := make(chan struct{})
	type result struct {
		shared bool
		err    error
	}
	waited := make(chan result, 1)
	go func() {
		<-started
		_, shared, err := f.Do("key", func() (any, error) { return 1, nil })
		waited <- result{shared, err}
	}()
	func() {
		defer func() {
			if v := recover(); v != "boom" {
				t.Fatalf("recovered %v, want fn's panic", v)
			}
		}()
		_, _, _ = f.Do("key", func() (any, error) {
			close(started)
			// Let the waiter join this call, as TestFlightDedup does.
			time.Sleep(50 * time.Millisecond)
			panic("boom")
		})
	}()
	select {
	case r := <-waited:
		// A waiter that came too late ran its own fn, which proves
		// nothing but is no failure.
		if r.shared && !errors.Is(r.err, ErrFlightPanicked) {
			t.Fatalf("waiter got %v, want ErrFlightPanicked", r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the waiter of a panicked call stays blocked")
	}
	v, shared, err := f.Do("key", func() (any, error) { return 5, nil })
	if err != nil || shared || v.(int) != 5 {
		t.Fatalf("retry after a panic: %v %v %v", v, shared, err)
	}
}

// TestCancellationOnFailure checks that the first failure stops the
// loop: tasks that have not started never start, and the failure is
// reported with its job's kind and key.
func TestCancellationOnFailure(t *testing.T) {
	r := New(1, nil, nil, nil)
	var started atomic.Int64
	err := r.Each(context.Background(), 6, func(i int) error {
		if i == 0 {
			return r.Job(KindCompile, "boom", func() error { return errors.New("bad compile") })
		}
		started.Add(1)
		return nil
	})
	if err == nil || err.Error() != "compile boom: bad compile" {
		t.Fatalf("error: %v", err)
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d tasks started after the failure", n)
	}
	if snap := r.Metrics().Snapshot(); snap.JobsFailed != 1 || len(snap.Jobs) != 1 || snap.Jobs[0].OK {
		t.Fatalf("failed job not recorded: %+v", snap)
	}
}

// TestParentContextCancellation checks that cancelling the caller's
// context stops the loop: the running task finishes, the waiting ones
// never start, and Each reports the cancellation.
func TestParentContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := New(1, nil, nil, nil)
	var ran atomic.Int64
	err := r.Each(ctx, 3, func(i int) error {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error: %v", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("%d tasks ran, want only the one running at the cancel", n)
	}
	if err := r.Each(context.Background(), 0, nil); err != nil {
		t.Fatalf("empty loop: %v", err)
	}
}

func TestLogObserver(t *testing.T) {
	var sb strings.Builder
	var mu sync.Mutex
	r := New(2, nil, LogObserver(&syncWriter{w: &sb, mu: &mu}), nil)
	err := r.Each(context.Background(), 1, func(int) error {
		if err := r.Job(KindCompile, "c", func() error { return nil }); err != nil {
			return err
		}
		return r.Job(KindSimulate, "s", func() error { return errors.New("bad run") })
	})
	if err == nil {
		t.Fatal("failing job not reported")
	}
	out := sb.String()
	for _, want := range []string{"start", "done", "compile", "simulate", "FAIL", "bad run"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log lacks %q:\n%s", want, out)
		}
	}
}

type syncWriter struct {
	w  *strings.Builder
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
