package runner

import (
	"sort"
	"sync"
	"time"

	"lpbuf/internal/obs"
)

// Metrics aggregates the runner's structured event stream: jobs
// run/failed, wall time split by job kind, compile- and
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
	cacheHits   *obs.Counter // compile cache
	cacheMisses *obs.Counter // actual compiles
	runHits     *obs.Counter // simulation-result cache
	runMisses   *obs.Counter // actual simulations
	peak        *obs.Gauge
	inFlightG   *obs.Gauge     // current jobs executing (runner.jobs_in_flight)
	queueG      *obs.Gauge     // tasks waiting for a worker (runner.queue_depth)
	wall        *obs.Histogram // per-job wall time, ms

	mu       sync.Mutex
	inFlight int
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
	m.mu.Unlock()
	m.peak.Max(float64(n))
	m.inFlightG.Add(1)
	return n
}

func (m *Metrics) jobDone(kind Kind, key string, elapsed time.Duration, err error) {
	m.jobsRun.Inc()
	if err != nil {
		m.jobsFailed.Inc()
	}
	m.wall.Observe(elapsed.Milliseconds())
	m.reg.Counter("runner.kind." + string(kind) + ".jobs").Inc()
	m.inFlightG.Add(-1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	kc := m.kinds[kind]
	if kc == nil {
		kc = &kindCounter{}
		m.kinds[kind] = kc
	}
	kc.jobs++
	kc.wall += elapsed
	m.jobs = append(m.jobs, JobRecord{
		Key:    key,
		Kind:   string(kind),
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
	JobsRun      int64                   `json:"jobs_run"`
	JobsFailed   int64                   `json:"jobs_failed"`
	CacheHits    int64                   `json:"compile_cache_hits"`
	CacheMisses  int64                   `json:"compile_cache_misses"`
	RunHits      int64                   `json:"run_cache_hits"`
	RunMisses    int64                   `json:"run_cache_misses"`
	PeakInFlight int                     `json:"peak_in_flight"`
	Kinds        map[string]KindSnapshot `json:"kinds"`
	Jobs         []JobRecord             `json:"jobs,omitempty"`
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
