package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"lpbuf/internal/experiments"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/service"
)

// The lpbufd-mixed load. Both clients run side by side on their own
// connection: a reader sends repeat specs (store hits) open-loop at
// hitRate, timing each from its due time; a sweeper submits novel
// Figure 7 jobs closed-loop. Job counts are fixed for a given --seconds
// (lpbufd keeps every job in memory, so memory compares only at equal
// work): the reader spans readerShare of --seconds, and the sweeper
// gets buildRate jobs per second of --seconds, so at that rate it ends
// after about --seconds. Every hit must meet a running build: the
// sweeper outlasts the reader while novel jobs run slower than
// buildRate/readerShare, 6.9 jobs/s. On a 2-core host whose speed
// swings about 1.8x from minute to minute, runs did 2.08 to 4.54 jobs/s.
// A hit validated after the sweeper ended fails the run, so a build
// side sped up past that margin shows as failed hits, not as a lower
// hit latency: raise buildRate then.
const (
	hitRate     = 8.0  // store-hit jobs per second of the reader's span
	buildRate   = 2.77 // novel jobs per second of --seconds
	readerShare = 0.4  // the reader's span as a share of --seconds
	novelCaps   = 2    // never-seen capacities per novel job
)

// poolFigures are the figures of the repeat specs, one spec each.
var poolFigures = []string{"3", "5", "7", "8a", "8b", "encoding", "headline"}

var poolSize = len(poolFigures)

// lpbufdInputs is everything the seed generates: the repeat pool, the
// hit order and the novel capacity sets (one for the warm-up job, the
// rest for the sweeper).
type lpbufdInputs struct {
	pool   []service.JobSpec
	keys   []string
	order  []int
	warmup []int
	novel  [][]int
}

func genLpbufdInputs(seed int64, hits, computed int) (*lpbufdInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &lpbufdInputs{}
	used := map[int]bool{}
	for _, sz := range experiments.BufferSizes {
		used[sz] = true
	}
	for _, fig := range poolFigures {
		spec := service.JobSpec{Schema: service.JobSchema, Figures: []string{fig}, Client: "reader"}
		switch fig {
		case "7":
			// The paper's 256 is always swept, so the Figure 8 and
			// headline specs warm from its cached runs whatever the seed.
			spec.Fig7Sizes = []int{256}
			for _, sz := range experiments.BufferSizes {
				if sz != 256 && len(spec.Fig7Sizes) < 4 && rng.Intn(2) == 0 {
					spec.Fig7Sizes = append(spec.Fig7Sizes, sz)
				}
			}
		case "5":
			spec.Fig5Sizes = []int{16 << rng.Intn(3)}
		}
		key, err := spec.Key()
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, spec)
		in.keys = append(in.keys, key)
	}
	// Repeats cycle through seeded permutations of the pool, so every
	// repeat spec is hit.
	for len(in.order) < hits {
		in.order = append(in.order, rng.Perm(poolSize)...)
	}
	in.order = in.order[:hits]
	novel := func() []int {
		var caps []int
		for len(caps) < novelCaps {
			c := 16 + rng.Intn(2048-16+1)
			if !used[c] {
				used[c] = true
				caps = append(caps, c)
			}
		}
		return caps
	}
	in.warmup = novel()
	for i := 0; i < computed; i++ {
		in.novel = append(in.novel, novel())
	}
	return in, nil
}

// client is one HTTP connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

// get fetches a path and returns the body of a 200 response.
func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// job submits a spec, waits for it, and fetches its artifact bytes.
func (c *client) job(spec service.JobSpec) (service.JobStatus, []byte, error) {
	var st service.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, nil, err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return st, nil, err
	}
	// Any other status, admission refusals (429, 503) included, fails
	// the op.
	if resp.StatusCode != http.StatusOK {
		return st, nil, fmt.Errorf("submit: %d %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, nil, fmt.Errorf("submit: %w", err)
	}
	if st.State != service.StateDone {
		return st, nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	art, err := c.get(st.ArtifactURL)
	return st, art, err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// lpbufdRun is one set-up daemon: the in-process server, its loopback
// listener and store, and the two client connections.
type lpbufdRun struct {
	cfg     *config
	in      *lpbufdInputs
	srv     *service.Server
	hs      *http.Server
	served  chan error
	store   string
	reader  *client
	sweeper *client
	ref     map[string][]byte
}

var logOnce sync.Once

// setupLpbufd starts a daemon with DefaultConfig, changing only a fresh
// store under the output directory and a loopback listener, and warms
// it: every repeat spec runs once (its artifact, checked against the
// baselines, becomes the reference copy) and one novel Figure 7 job
// fills the compile cache the sweeper's jobs share.
func setupLpbufd(cfg *config) (instance, error) {
	hits := max(poolSize, int(hitRate*readerShare*cfg.seconds))
	// Sized from the reader's actual span, which the pool's minimum can
	// stretch on short runs.
	computed := int(math.Ceil(buildRate / readerShare * float64(hits) / hitRate))
	in, err := genLpbufdInputs(cfg.seed, hits, computed)
	if err != nil {
		return nil, err
	}
	// The daemon logs one record per request; keep them in a file, as a
	// deployment would, rather than on this command's streams.
	var logErr error
	logOnce.Do(func() {
		f, err := os.Create(filepath.Join(cfg.out, "lpbufd.log"))
		if err != nil {
			logErr = err
			return
		}
		log.SetOutput(f)
	})
	if logErr != nil {
		return nil, logErr
	}
	store, err := os.MkdirTemp(cfg.out, "store-")
	if err != nil {
		return nil, err
	}
	scfg := service.DefaultConfig()
	scfg.StoreDir = store
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(store)
		return nil, err
	}
	scfg.Listen = ln.Addr().String()
	srv, err := service.New(scfg)
	if err != nil {
		ln.Close()
		os.RemoveAll(store)
		return nil, err
	}
	srv.Start()
	l := &lpbufdRun{cfg: cfg, in: in, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1), store: store, ref: map[string][]byte{}}
	go func() { l.served <- l.hs.Serve(ln) }()
	base := "http://" + scfg.Listen
	l.reader, l.sweeper = newClient(base), newClient(base)
	if err := l.warm(); err != nil {
		l.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return l, nil
}

func (l *lpbufdRun) warm() error {
	chk := &checker{base: l.cfg.base}
	for i, spec := range l.in.pool {
		_, data, err := l.reader.job(spec)
		if err != nil {
			return fmt.Errorf("repeat spec %v: %w", spec.Figures, err)
		}
		a, err := experiments.DecodeArtifact(data)
		if err != nil {
			return err
		}
		chk.artifact(a)
		l.ref[l.in.keys[i]] = data
	}
	if _, data, err := l.sweeper.job(novelSpec(l.in.warmup)); err != nil {
		return err
	} else if err := checkNovel(chk, data, l.in.warmup); err != nil {
		return err
	}
	if len(chk.problems) > 0 {
		return errors.New(chk.problems[0].msg)
	}
	if l.cfg.inject {
		ref := l.ref[l.in.keys[0]]
		ref[len(ref)/2] ^= 1
	}
	return nil
}

func novelSpec(caps []int) service.JobSpec {
	return service.JobSpec{Schema: service.JobSchema, Figures: []string{"7"}, Fig7Sizes: caps, Client: "sweeper"}
}

// checkNovel verifies a novel Figure 7 artifact: both configs, every
// benchmark, a ratio in [0, 1] at exactly the requested capacities.
func checkNovel(chk *checker, data []byte, caps []int) error {
	a, err := experiments.DecodeArtifact(data)
	if err != nil {
		return err
	}
	want := append([]int(nil), caps...)
	sort.Ints(want)
	if !slices.Equal(a.BufferSizes, want) || len(a.Figure7) != len(configs) {
		return fmt.Errorf("novel artifact: sizes %v configs %d, want %v and %d", a.BufferSizes, len(a.Figure7), want, len(configs))
	}
	n := len(chk.problems)
	chk.artifact(a)
	if len(chk.problems) > n {
		return errors.New(chk.problems[n].msg)
	}
	return nil
}

func (l *lpbufdRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	l.reader.close()
	l.sweeper.close()
	if err := l.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: lpbufd shutdown: %v\n", err)
	}
	<-l.served
	if err := l.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: lpbufd drain: %v\n", err)
	}
	os.RemoveAll(l.store)
}

// sample is one measured job as the client saw it.
type sample struct {
	id                   string
	due, sent, validated time.Time
	provenance           string
	err                  error
}

// measure runs the two clients to their fixed job counts.
func (l *lpbufdRun) measure(traced bool) (*phase, error) {
	ph := &phase{}
	var trace *obs.Trace
	var mem *memDelta
	var before obs.RegistrySnapshot
	if traced {
		trace = obs.NewTrace(0)
		var err error
		if before, err = l.metrics(); err != nil {
			return nil, err
		}
		mem = startMem()
	}
	hits := make([]sample, len(l.in.order))
	comps := make([]sample, len(l.in.novel))
	interval := time.Duration(float64(time.Second) / hitRate)
	start := time.Now()
	var sweepEnd time.Time
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, p := range l.in.order {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			s := &hits[i]
			s.due = due
			l.one(trace, "client.hit", l.reader, l.in.pool[p], s, func(data []byte) error {
				if !bytes.Equal(data, l.ref[l.in.keys[p]]) {
					return fmt.Errorf("repeat of %v: artifact bytes differ from the first copy", l.in.pool[p].Figures)
				}
				_, err := experiments.DecodeArtifact(data)
				return err
			})
			if s.err == nil && s.provenance != "store-hit" {
				s.err = fmt.Errorf("repeat job %s served as %s", s.id, s.provenance)
			}
		}
	}()
	go func() {
		defer wg.Done()
		chk := &checker{base: l.cfg.base}
		for j, caps := range l.in.novel {
			s := &comps[j]
			s.due = time.Now()
			l.one(trace, "client.computed", l.sweeper, novelSpec(caps), s, func(data []byte) error {
				return checkNovel(chk, data, caps)
			})
			if s.err == nil && s.provenance != "computed" {
				s.err = fmt.Errorf("novel job %s served as %s", s.id, s.provenance)
			}
		}
		sweepEnd = time.Now()
	}()
	wg.Wait()
	end := time.Now()
	lastHit := hits[len(hits)-1].validated
	var memLayers map[string]float64
	if traced {
		memLayers = mem.layers(len(hits) + len(comps))
	}

	var lateness []float64
	uncontended := 0
	for _, s := range hits {
		ph.attempted++
		if s.err != nil {
			ph.fail("hit %s: %v", s.id, s.err)
			continue
		}
		if s.validated.After(sweepEnd) {
			uncontended++
			ph.failed++
			continue
		}
		ph.latMS = append(ph.latMS, ms(s.validated.Sub(s.due)))
		lateness = append(lateness, ms(s.sent.Sub(s.due)))
	}
	var compMS []float64
	for _, s := range comps {
		ph.attempted++
		if s.err != nil {
			ph.fail("computed %s: %v", s.id, s.err)
			continue
		}
		compMS = append(compMS, ms(s.validated.Sub(s.due)))
	}
	if uncontended > 0 {
		ph.failures = append(ph.failures, fmt.Sprintf(
			"%d hits were validated after the sweeper's last job: they met no running build (raise buildRate)", uncontended))
	}
	ph.tpOps = len(compMS)
	ph.tpWall = sweepEnd.Sub(start)
	hitSorted, compSorted := sortedCopy(ph.latMS), sortedCopy(compMS)
	ph.p90MS = quantile(hitSorted, 0.9)
	ph.report = append(ph.report,
		fmt.Sprintf("inputs: %d repeat specs, %d hits at %.0f/s open-loop, %d novel Figure 7 jobs closed-loop (seeded)",
			poolSize, len(hits), hitRate, len(comps)),
		fmt.Sprintf("load %.3fs; reader %.3fs, sweeper %.3fs (every hit must end before the sweeper)",
			end.Sub(start).Seconds(), lastHit.Sub(start).Seconds(), ph.tpWall.Seconds()),
		"hit "+describeLatency(hitSorted),
		"computed "+describeLatency(compSorted),
		fmt.Sprintf("client.lateness_ms p50 %.4f, p90 %.4f, max %.4f",
			median(lateness), quantile(sortedCopy(lateness), 0.9), quantile(sortedCopy(lateness), 1)))
	if !traced {
		return ph, nil
	}
	lay, err := l.layers(ph, hits, comps, before)
	if err != nil {
		return nil, err
	}
	maps.Copy(lay, memLayers)
	lay["client.lateness_ms"] = mean(lateness)
	ph.layers = lay
	return ph, writeTrace(l.cfg, trace)
}

// one runs a job for a client, recording its timeline in s and, when
// tracing, a client span around the submit, fetch and check.
func (l *lpbufdRun) one(trace *obs.Trace, name string, c *client, spec service.JobSpec, s *sample, check func([]byte) error) {
	sp := trace.StartSpan(name)
	s.sent = time.Now()
	st, data, err := c.job(spec)
	s.id = st.ID
	if st.Resources != nil {
		s.provenance = st.Resources.Provenance
	}
	if err == nil {
		v := sp.Child("client.check")
		err = check(data)
		v.End()
	}
	s.validated = time.Now()
	s.err = err
	sp.SetAttr("job", st.ID)
	sp.End()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metrics fetches the daemon's registry snapshot.
func (l *lpbufdRun) metrics() (obs.RegistrySnapshot, error) {
	var snap obs.RegistrySnapshot
	data, err := l.reader.get("/metrics")
	if err != nil {
		return snap, err
	}
	return snap, json.Unmarshal(data, &snap)
}

// layers derives the per-layer metrics after the load: each job's
// server-side span tree and status, and the /metrics delta over the
// load.
func (l *lpbufdRun) layers(ph *phase, hits, comps []sample, before obs.RegistrySnapshot) (map[string]float64, error) {
	after, err := l.metrics()
	if err != nil {
		return nil, err
	}
	ops := len(hits) + len(comps)
	tot := newSpanTotals()
	var clientMS, rootMS, queueMS float64
	var allocs []float64
	var samples int64
	for _, s := range append(append([]sample(nil), hits...), comps...) {
		if s.id == "" {
			continue
		}
		data, err := l.reader.get("/v1/jobs/" + s.id + "/trace")
		if err != nil {
			return nil, err
		}
		spans, err := parseChrome(data)
		if err != nil {
			return nil, err
		}
		one := newSpanTotals()
		one.add(spans)
		tot.add(spans)
		clientMS += ms(s.validated.Sub(s.sent))
		rootMS += float64(one.svcRootUS) / 1000
		queueMS += float64(one.svcUS["queue_wait"]) / 1000
		data, err = l.reader.get("/v1/jobs/" + s.id)
		if err != nil {
			return nil, err
		}
		var st service.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, err
		}
		if r := st.Resources; r != nil && r.Provenance == "computed" {
			allocs = append(allocs, float64(r.AllocBytes)/(1<<20))
		}
		// A computed job's guest-PMU profile is served on its own
		// route: the registry's sim counters of a sweep land in the
		// scope of the job that compiled the program (the warm-up).
		if st.SimProfileURL != "" {
			data, err := l.reader.get(st.SimProfileURL)
			if err != nil {
				return nil, err
			}
			doc, err := pmu.Decode(data)
			if err != nil {
				return nil, err
			}
			for _, p := range doc.Profiles {
				samples += p.TotalSamples
			}
		}
	}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	m := tot.layers(ops)
	m["service.server_ms"] = (rootMS - queueMS) / float64(ops)
	m["service.http_ms"] = (clientMS - rootMS) / float64(ops)
	if n := delta("service.store_hits") + delta("service.store_misses"); n > 0 {
		m["service.store_hit_ratio"] = delta("service.store_hits") / n
	}
	m["service.rejected"] = delta("service.jobs_rejected")
	m["service.alloc_mb_per_job"] = mean(allocs)
	if n := delta("runner.run_cache_hits") + delta("runner.run_cache_misses"); n > 0 {
		m["experiments.run_hit_ratio"] = delta("runner.run_cache_hits") / n
	}
	m["pmu.samples"] = float64(samples) / float64(ops)
	var simOps, plans float64
	for _, caps := range l.in.novel {
		for _, b := range experiments.Benchmarks() {
			for _, c := range configs {
				simOps += float64(l.cfg.base.Benchmarks[b][c].OpsIssued)
				plans += float64(len(caps))
			}
		}
	}
	m["vliw.sim_ops"] = simOps / float64(ops)
	m["vliw.plans"] = plans / float64(ops)
	if simOps > 0 {
		m["vliw.ns_per_sim_op"] = 1e6 * m["vliw.ms"] * float64(ops) / simOps
	}
	if tot.svcRootUS > 0 {
		var named int64
		for _, p := range jobPhases {
			named += tot.svcUS[p]
		}
		m["trace.unattributed_pct"] = 100 * float64(tot.svcRootUS-named) / float64(tot.svcRootUS)
	}
	ph.report = append(ph.report, fmt.Sprintf(
		"server job time %.1f ms over %d jobs (%d compiles during the load); named phases cover %.1f%%",
		float64(tot.svcRootUS)/1000, tot.svcJobs, tot.compiles, 100-m["trace.unattributed_pct"]))
	if tot.dropped {
		ph.fail("a job trace dropped spans; per-layer totals are incomplete")
	}
	return m, nil
}
