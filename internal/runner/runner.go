// Package runner is the experiment-execution subsystem: a bounded
// parallel loop (Each) that figure regeneration runs its per-benchmark
// tasks on, and a job recorder (Job) that turns each compile or
// simulation inside a task into an observable unit: a start/done/fail
// event for the progress log, a job.<kind> span, and a Metrics record
// (wall time split by kind, cache hit/miss counters, peak in-flight)
// for the JSON artifact. A singleflight group (Flight) deduplicates
// concurrent identical work for callers that keep no memo of their own.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"lpbuf/internal/obs"
)

// Kind classifies a job for the compile/simulate wall-time split in
// the metrics and the progress log.
type Kind string

// The experiment job kinds.
const (
	KindCompile  Kind = "compile"
	KindSimulate Kind = "simulate"
	KindAnalyze  Kind = "analyze"
)

// Runner runs tasks on a bounded number of workers. The bound is
// global: concurrent Each calls on the same Runner share it, so the
// tasks in flight never exceed the worker count.
//
// A task must not call Each on the same Runner: it holds a worker while
// it runs, and waiting for more workers could deadlock.
type Runner struct {
	sem     chan struct{}
	metrics *Metrics
	onEvent func(Event)
	trace   *obs.Trace
}

// New creates a Runner with at most workers tasks in flight (values
// below 1 use runtime.GOMAXPROCS(0)). metrics receives the job records
// (nil gives the runner private ones), onEvent observes the job event
// stream (see LogObserver; it may be called from several goroutines),
// and trace receives one span per job (nil disables job spans).
func New(workers int, metrics *Metrics, onEvent func(Event), trace *obs.Trace) *Runner {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &Runner{sem: make(chan struct{}, workers), metrics: metrics,
		onEvent: onEvent, trace: trace}
}

// Metrics returns the runner's counters.
func (r *Runner) Metrics() *Metrics { return r.metrics }

// Each runs fn(i) for every i in [0, n), starting tasks in index order
// as workers free up. The first error, or a cancelled ctx, stops the
// tasks that have not started; Each waits for the started ones and
// returns that error. Tasks waiting for a worker count in the
// runner.queue_depth gauge.
func (r *Runner) Each(ctx context.Context, n int, fn func(i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	r.metrics.queueG.Add(float64(n))
	started := 0
	for ; started < n && r.acquire(ctx); started++ {
		r.metrics.queueG.Add(-1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-r.sem }()
			if err := fn(i); err != nil {
				errOnce.Do(func() { firstErr = err; cancel() })
			}
		}(started)
	}
	r.metrics.queueG.Add(float64(started - n))
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if started < n {
		return ctx.Err()
	}
	return nil
}

// acquire takes a worker, or reports false once ctx is done.
func (r *Runner) acquire(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return false
	case r.sem <- struct{}{}:
	}
	if ctx.Err() != nil {
		<-r.sem
		return false
	}
	return true
}

// Job runs fn as one recorded job: it emits the start and done (or
// fail) events, records a job.<kind> span and a Metrics entry, and
// returns fn's error prefixed with the job's kind and key. Job takes no
// worker: it runs inside a task that already holds one.
func (r *Runner) Job(kind Kind, key string, fn func() error) error {
	inFlight := r.metrics.jobStart()
	r.emit(Event{Type: EventStart, Key: key, Kind: kind, InFlight: inFlight})
	span := r.trace.StartSpan("job." + string(kind))
	span.SetAttr("key", key)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	r.metrics.jobDone(kind, key, elapsed, err)
	span.SetAttr("ok", err == nil)
	span.End()
	if err != nil {
		r.emit(Event{Type: EventFail, Key: key, Kind: kind, Elapsed: elapsed, Err: err.Error()})
		return fmt.Errorf("%s %s: %w", kind, key, err)
	}
	r.emit(Event{Type: EventDone, Key: key, Kind: kind, Elapsed: elapsed})
	return nil
}

func (r *Runner) emit(e Event) {
	if r.onEvent == nil {
		return
	}
	e.Time = time.Now()
	r.onEvent(e)
}
