package runner

import (
	"sort"
	"sync"
	"time"

	"lpbuf/internal/obs"
)

// Metrics aggregates the runner's structured event stream: jobs
// run/failed/retried, wall time split by job kind, compile- and
// run-cache hit/miss counts, peak in-flight jobs, and a per-job timing
// record for the JSON artifact. The scalar counters live in an
// obs.Registry (under "runner.*" names), so they appear in metrics
// snapshots alongside the simulator's and can be scraped via expvar;
// Snapshot reads them back through the registry's atomic instruments.
// All methods are safe for concurrent use.
type Metrics struct {
	reg *obs.Registry

	jobsRun     *obs.Counter
	jobsFailed  *obs.Counter
	retries     *obs.Counter
	cacheHits   *obs.Counter // compile cache
	cacheMisses *obs.Counter // actual compiles
	runHits     *obs.Counter // simulation-result cache
	runMisses   *obs.Counter // actual simulations
	peak        *obs.Gauge
	inFlightG   *obs.Gauge     // current jobs executing (runner.jobs_in_flight)
	queueG      *obs.Gauge     // admitted-but-unstarted jobs (runner.queue_depth)
	wall        *obs.Histogram // per-job wall time, ms

	mu       sync.Mutex
	inFlight int
	queued   int
	kinds    map[Kind]*kindCounter
	jobs     []JobRecord
}

type kindCounter struct {
	jobs int64
	wall time.Duration
}

// NewMetrics creates a counter set backed by a private registry.
func NewMetrics() *Metrics { return NewMetricsIn(obs.NewRegistry()) }

// NewMetricsIn creates a counter set whose scalar counters live in the
// given registry, so runner metrics share a snapshot with everything
// else registered there.
func NewMetricsIn(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		reg:         reg,
		jobsRun:     reg.Counter("runner.jobs_run"),
		jobsFailed:  reg.Counter("runner.jobs_failed"),
		retries:     reg.Counter("runner.retries"),
		cacheHits:   reg.Counter("runner.compile_cache_hits"),
		cacheMisses: reg.Counter("runner.compile_cache_misses"),
		runHits:     reg.Counter("runner.run_cache_hits"),
		runMisses:   reg.Counter("runner.run_cache_misses"),
		peak:        reg.Gauge("runner.peak_in_flight"),
		inFlightG:   reg.Gauge("runner.jobs_in_flight"),
		queueG:      reg.Gauge("runner.queue_depth"),
		wall:        reg.Histogram("runner.job_wall_ms"),
		kinds:       map[Kind]*kindCounter{},
	}
}

// Registry exposes the backing registry (for snapshots/expvar).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

func (m *Metrics) jobStart() int {
	m.mu.Lock()
	m.inFlight++
	n := m.inFlight
	dequeued := false
	if m.queued > 0 {
		m.queued--
		dequeued = true
	}
	m.mu.Unlock()
	m.peak.Max(float64(n))
	m.inFlightG.Add(1)
	if dequeued {
		m.queueG.Add(-1)
	}
	return n
}

// enqueue records n jobs admitted to a graph but not yet started.
// Execute calls it once per graph; jobStart moves a job from queued to
// in flight, and unqueue drops whatever a cancelled graph never ran.
func (m *Metrics) enqueue(n int) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	m.queued += n
	m.mu.Unlock()
	m.queueG.Add(float64(n))
}

// unqueue removes n never-started jobs (graph cancelled or failed).
func (m *Metrics) unqueue(n int) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	if n > m.queued {
		n = m.queued
	}
	m.queued -= n
	m.mu.Unlock()
	m.queueG.Add(float64(-n))
}

// InFlight reports the jobs currently executing. Admission-control
// layers poll it (alongside QueueDepth) to decide whether new work
// should be accepted.
func (m *Metrics) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inFlight
}

// QueueDepth reports jobs admitted to an executing graph that have not
// started yet.
func (m *Metrics) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued
}

func (m *Metrics) retry() { m.retries.Inc() }

func (m *Metrics) jobDone(s *Spec, elapsed time.Duration, err error) {
	m.jobsRun.Inc()
	if err != nil {
		m.jobsFailed.Inc()
	}
	m.wall.Observe(elapsed.Milliseconds())
	m.reg.Counter("runner.kind." + string(s.Kind) + ".jobs").Inc()
	m.inFlightG.Add(-1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	kc := m.kinds[s.Kind]
	if kc == nil {
		kc = &kindCounter{}
		m.kinds[s.Kind] = kc
	}
	kc.jobs++
	kc.wall += elapsed
	m.jobs = append(m.jobs, JobRecord{
		Key:    s.Key,
		Kind:   string(s.Kind),
		WallMS: float64(elapsed) / float64(time.Millisecond),
		OK:     err == nil,
	})
}

// CacheHit counts a compile served from cache (or shared in flight).
func (m *Metrics) CacheHit() { m.cacheHits.Inc() }

// CacheMiss counts an actual compile execution.
func (m *Metrics) CacheMiss() { m.cacheMisses.Inc() }

// RunHit counts a simulation result served from cache.
func (m *Metrics) RunHit() { m.runHits.Inc() }

// RunMiss counts an actual simulation execution.
func (m *Metrics) RunMiss() { m.runMisses.Inc() }

// CacheMisses reports how many compiles actually executed.
func (m *Metrics) CacheMisses() int64 { return m.cacheMisses.Value() }

// JobRecord is the per-job timing entry of the JSON artifact.
type JobRecord struct {
	Key    string  `json:"key"`
	Kind   string  `json:"kind"`
	WallMS float64 `json:"wall_ms"`
	OK     bool    `json:"ok"`
}

// KindSnapshot aggregates one job kind.
type KindSnapshot struct {
	Jobs   int64   `json:"jobs"`
	WallMS float64 `json:"wall_ms"`
}

// Snapshot is the JSON-marshalable view of the counters.
type Snapshot struct {
	JobsRun      int64 `json:"jobs_run"`
	JobsFailed   int64 `json:"jobs_failed"`
	Retries      int64 `json:"retries"`
	CacheHits    int64 `json:"compile_cache_hits"`
	CacheMisses  int64 `json:"compile_cache_misses"`
	RunHits      int64 `json:"run_cache_hits"`
	RunMisses    int64 `json:"run_cache_misses"`
	PeakInFlight int   `json:"peak_in_flight"`
	// InFlight/QueueDepth are live-gauge reads, interesting only while
	// jobs are executing (admission control snapshots mid-run); both
	// settle to zero once every graph completes, so they are omitted
	// from at-rest artifacts and the golden schema is unchanged.
	InFlight   int                     `json:"in_flight,omitempty"`
	QueueDepth int                     `json:"queue_depth,omitempty"`
	Kinds      map[string]KindSnapshot `json:"kinds"`
	Jobs       []JobRecord             `json:"jobs,omitempty"`
}

// Snapshot copies the counters. Job records are sorted by key so the
// artifact diffs cleanly across runs regardless of completion order.
// Safe to call while jobs are running: the job/kind tables are copied
// under the mutex first, and the atomic counters are read after. Since
// jobDone increments jobs_run before it appends the job's record, a
// mid-run snapshot never reports more records than jobs run.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	m.mu.Lock()
	s.InFlight = m.inFlight
	s.QueueDepth = m.queued
	s.Kinds = make(map[string]KindSnapshot, len(m.kinds))
	for k, kc := range m.kinds {
		s.Kinds[string(k)] = KindSnapshot{
			Jobs:   kc.jobs,
			WallMS: float64(kc.wall) / float64(time.Millisecond),
		}
	}
	s.Jobs = append([]JobRecord(nil), m.jobs...)
	m.mu.Unlock()
	s.JobsRun = m.jobsRun.Value()
	s.JobsFailed = m.jobsFailed.Value()
	s.Retries = m.retries.Value()
	s.CacheHits = m.cacheHits.Value()
	s.CacheMisses = m.cacheMisses.Value()
	s.RunHits = m.runHits.Value()
	s.RunMisses = m.runMisses.Value()
	s.PeakInFlight = int(m.peak.Value())
	sort.Slice(s.Jobs, func(i, j int) bool {
		if s.Jobs[i].Key != s.Jobs[j].Key {
			return s.Jobs[i].Key < s.Jobs[j].Key
		}
		return s.Jobs[i].Kind < s.Jobs[j].Kind
	})
	return s
}
