package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testServer builds a started Server on a temp store with quiet logs.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.StoreDir == "" {
		cfg.StoreDir = t.TempDir()
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = 1
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxPerClient == 0 {
		cfg.MaxPerClient = 16
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogger(t.Logf)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	s.Start()
	return s
}

// blockingBuild replaces Server.build with a stub that blocks until
// release is closed, then stores distinct-but-valid artifact bytes.
func blockingBuild(release <-chan struct{}) func(j *Job) ([]byte, error) {
	return func(j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte(fmt.Sprintf("{\"schema\":\"lpbuf.artifact/v1\",\"job\":%q}\n", j.Key())), nil
		case <-j.ctx.Done():
			return nil, j.ctx.Err()
		}
	}
}

// submitHTTP posts a spec and decodes the response status.
func submitHTTP(t *testing.T, ts *httptest.Server, spec JobSpec, wait bool) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad status body %q: %v", data, err)
		}
	}
	return st, resp
}

func fetchArtifact(t *testing.T, ts *httptest.Server, id string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch for %s: %s: %s", id, resp.Status, data)
	}
	return data, resp.Header.Get("X-Lpbuf-Cache")
}

// TestIdenticalJobsServeFromStore is the acceptance test: the same job
// submitted twice over HTTP yields byte-identical artifacts, with the
// second served from the content-addressed store — cache-hit counter
// up, no recompilation.
func TestIdenticalJobsServeFromStore(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Figures: []string{"5"}, Fig5Sizes: []int{16}}
	st1, resp1 := submitHTTP(t, ts, spec, true)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %s", resp1.Status)
	}
	if st1.State != StateDone {
		t.Fatalf("first job finished %s (%s)", st1.State, st1.Error)
	}
	if st1.CacheHit {
		t.Fatal("first job claims a cache hit on an empty store")
	}
	art1, via1 := fetchArtifact(t, ts, st1.ID)
	if via1 != "computed" {
		t.Fatalf("first artifact via %q, want computed", via1)
	}
	compiles := s.Registry().Snapshot().Counters["runner.compile_cache_misses"]
	if compiles == 0 {
		t.Fatal("first job compiled nothing")
	}

	st2, resp2 := submitHTTP(t, ts, spec, true)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: %s", resp2.Status)
	}
	if st2.State != StateDone {
		t.Fatalf("second job finished %s (%s)", st2.State, st2.Error)
	}
	if !st2.CacheHit {
		t.Fatal("second identical job did not report a store cache hit")
	}
	if st2.Key != st1.Key {
		t.Fatalf("identical specs keyed differently: %s vs %s", st1.Key, st2.Key)
	}
	art2, via2 := fetchArtifact(t, ts, st2.ID)
	if via2 != "store-hit" {
		t.Fatalf("second artifact via %q, want store-hit", via2)
	}
	if !bytes.Equal(art1, art2) {
		t.Fatal("artifacts for identical jobs differ byte-wise")
	}

	snap := s.Registry().Snapshot()
	if hits := snap.Counters["service.store_hits"]; hits != 1 {
		t.Fatalf("service.store_hits = %d, want 1", hits)
	}
	if misses := snap.Counters["service.store_misses"]; misses != 1 {
		t.Fatalf("service.store_misses = %d, want 1", misses)
	}
	if after := snap.Counters["runner.compile_cache_misses"]; after != compiles {
		t.Fatalf("second job recompiled: compile_cache_misses %d -> %d", compiles, after)
	}
	if n, _ := s.Store().Len(); n != 1 {
		t.Fatalf("store holds %d objects, want 1", n)
	}
	if err := s.Store().Check(); err != nil {
		t.Fatalf("store inconsistent: %v", err)
	}
}

// TestDrainCompletesInFlightCancelsQueued proves the graceful-drain
// contract: the running job finishes and lands in the store, queued
// jobs are canceled without running, and the store stays consistent.
func TestDrainCompletesInFlightCancelsQueued(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1})
	release := make(chan struct{})
	s.build = blockingBuild(release)

	a, err := s.Submit(JobSpec{Figures: []string{"3"}}, "test")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, StateRunning)
	b, err := s.Submit(JobSpec{Figures: []string{"8a"}}, "test")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Submit(JobSpec{Figures: []string{"8b"}}, "test")
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Drain must cancel the queued jobs promptly even while a is stuck.
	waitState(t, b, StateCanceled)
	waitState(t, c, StateCanceled)
	if !s.Draining() {
		t.Fatal("Draining() false mid-drain")
	}
	select {
	case <-drained:
		t.Fatal("Drain returned while a job was still in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitState(t, a, StateDone)

	if n, _ := s.Store().Len(); n != 1 {
		t.Fatalf("store holds %d objects after drain, want 1 (only the in-flight job)", n)
	}
	if !s.Store().Has(a.Key()) {
		t.Fatal("in-flight job's artifact missing after drain")
	}
	if err := s.Store().Check(); err != nil {
		t.Fatalf("store inconsistent after drain: %v", err)
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["service.jobs_canceled"]; got != 2 {
		t.Fatalf("jobs_canceled = %d, want 2", got)
	}
	if got := snap.Gauges["service.jobs_queued"]; got != 0 {
		t.Fatalf("jobs_queued gauge = %v after drain, want 0", got)
	}
	if got := snap.Gauges["service.jobs_running"]; got != 0 {
		t.Fatalf("jobs_running gauge = %v after drain, want 0", got)
	}

	// Submissions during/after drain are rejected with a 503-shaped error.
	if _, err := s.Submit(JobSpec{Figures: []string{"7"}}, "test"); err == nil {
		t.Fatal("submit accepted while draining")
	} else {
		var rej *RejectError
		if !errors.As(err, &rej) || rej.Code != http.StatusServiceUnavailable {
			t.Fatalf("drain rejection = %v, want 503 RejectError", err)
		}
	}
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.Status(); st.State == want {
			return
		} else if st.State.Terminal() && want != st.State {
			t.Fatalf("job %s reached %s, want %s (%s)", j.ID(), st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (now %s)", j.ID(), want, j.Status().State)
}

// TestQueueFullRejects exercises queue-depth admission over HTTP,
// including the Retry-After header.
func TestQueueFullRejects(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	s.build = blockingBuild(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, resp := submitHTTP(t, ts, JobSpec{Figures: []string{"3"}}, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %s", resp.Status)
	}
	j, _ := s.Get(a.ID)
	waitState(t, j, StateRunning)
	if _, resp := submitHTTP(t, ts, JobSpec{Figures: []string{"8a"}}, false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit: %s", resp.Status)
	}
	_, resp3 := submitHTTP(t, ts, JobSpec{Figures: []string{"8b"}}, false)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: %s, want 429", resp3.Status)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.Registry().Snapshot().Counters["service.jobs_rejected"]; got != 1 {
		t.Fatalf("jobs_rejected = %d, want 1", got)
	}
}

// TestPerClientCap verifies one client cannot monopolize the queue
// while another client still gets in.
func TestPerClientCap(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1, QueueDepth: 64, MaxPerClient: 1})
	release := make(chan struct{})
	defer close(release)
	s.build = blockingBuild(release)

	if _, err := s.Submit(JobSpec{Figures: []string{"3"}, Client: "alice"}, ""); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(JobSpec{Figures: []string{"8a"}, Client: "alice"}, "")
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Code != http.StatusTooManyRequests {
		t.Fatalf("second alice submit = %v, want 429 RejectError", err)
	}
	if _, err := s.Submit(JobSpec{Figures: []string{"8a"}, Client: "bob"}, ""); err != nil {
		t.Fatalf("bob blocked by alice's cap: %v", err)
	}
}

// TestCancelQueuedJob cancels a queued job via the HTTP API; the worker
// must skip it.
func TestCancelQueuedJob(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1})
	release := make(chan struct{})
	s.build = blockingBuild(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, err := s.Submit(JobSpec{Figures: []string{"3"}}, "test")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, StateRunning)
	b, err := s.Submit(JobSpec{Figures: []string{"8a"}}, "test")
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID(), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %s", resp.Status)
	}
	waitState(t, b, StateCanceled)

	close(release)
	waitState(t, a, StateDone)
	if n, _ := s.Store().Len(); n != 1 {
		t.Fatalf("store holds %d objects, want 1 (canceled job must not have run)", n)
	}
}

// TestHotReload verifies admission fields apply live and startup-bound
// fields are ignored but reported.
func TestHotReload(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1, QueueDepth: 8})
	next := s.Config()
	next.QueueDepth = 2
	next.MaxPerClient = 3
	next.Listen = "0.0.0.0:9999"
	next.MaxJobs = 7
	changed, ignored, err := s.Reload(next)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"listen", "max_jobs"}; !equalStrings(ignored, want) {
		t.Fatalf("ignored = %v, want %v", ignored, want)
	}
	if want := []string{"queue_depth: 8 -> 2", "max_per_client: 16 -> 3"}; !equalStrings(changed, want) {
		t.Fatalf("changed = %v, want %v", changed, want)
	}
	cfg := s.Config()
	if cfg.QueueDepth != 2 || cfg.MaxPerClient != 3 {
		t.Fatalf("admission fields not applied: %+v", cfg)
	}
	if cfg.Listen != "127.0.0.1:0" || cfg.MaxJobs != 1 {
		t.Fatalf("startup-bound fields changed: %+v", cfg)
	}
	if got := s.Registry().Snapshot().Counters["service.config_reloads"]; got != 1 {
		t.Fatalf("config_reloads = %d, want 1", got)
	}

	// The lowered depth gates admission immediately.
	release := make(chan struct{})
	defer close(release)
	s.build = blockingBuild(release)
	a, err := s.Submit(JobSpec{Figures: []string{"3"}}, "test")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, StateRunning)
	for _, fig := range []string{"8a", "8b"} {
		if _, err := s.Submit(JobSpec{Figures: []string{fig}}, "test"); err != nil {
			t.Fatalf("submit %s under new depth: %v", fig, err)
		}
	}
	var rej *RejectError
	if _, err := s.Submit(JobSpec{Figures: []string{"7"}}, "test"); !errors.As(err, &rej) {
		t.Fatalf("submit past reloaded depth = %v, want RejectError", err)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSSEStream follows a job's event stream end to end: replayed and
// live events arrive in order and the stream closes at the terminal
// state.
func TestSSEStream(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1})
	release := make(chan struct{})
	s.build = func(j *Job) ([]byte, error) {
		j.hub.publish(Event{Type: "progress", JobID: j.id, Key: "compile/x", Phase: "done"})
		<-release
		return []byte("{\"ok\":true}\n"), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	a, err := s.Submit(JobSpec{Figures: []string{"3"}}, "test")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, StateRunning)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + a.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	close(release)

	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var seq []string
	lastSeq := int64(0)
	for _, e := range events {
		if e.Seq <= lastSeq {
			t.Fatalf("events out of order: seq %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Type == "state" {
			seq = append(seq, string(e.State))
		} else {
			seq = append(seq, e.Type)
		}
	}
	want := []string{"queued", "running", "progress", "done"}
	if !equalStrings(seq, want) {
		t.Fatalf("event sequence %v, want %v", seq, want)
	}
}

// TestInFlightDedup submits the same spec twice concurrently: the two
// jobs singleflight into one build.
func TestInFlightDedup(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 2})
	builds := make(chan struct{}, 8)
	release := make(chan struct{})
	s.build = func(j *Job) ([]byte, error) {
		builds <- struct{}{}
		<-release
		return []byte("{\"ok\":true}\n"), nil
	}

	spec := JobSpec{Figures: []string{"3"}}
	a, err := s.Submit(spec, "alice")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, StateRunning)
	<-builds // a's build is in flight
	b, err := s.Submit(spec, "bob")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, b, StateRunning)

	close(release)
	waitState(t, a, StateDone)
	waitState(t, b, StateDone)
	select {
	case <-builds:
		t.Fatal("identical in-flight jobs built twice")
	default:
	}
	snap := s.Registry().Snapshot()
	if got := snap.Counters["service.inflight_dedup"]; got != 1 {
		t.Fatalf("inflight_dedup = %d, want 1", got)
	}
	if n, _ := s.Store().Len(); n != 1 {
		t.Fatalf("store holds %d objects, want 1", n)
	}
}

// TestJobPanicFailsTheJob checks that a panic in a job's own code
// fails that job only: it fails with an error naming the panic, its
// stack reaches the flight recorder, service.job_panics counts it, an
// identical resubmitted spec computes instead of blocking on the
// panicked build, and the worker serves the next job.
func TestJobPanicFailsTheJob(t *testing.T) {
	s := testServer(t, Config{})
	var builds atomic.Int64
	s.build = func(j *Job) ([]byte, error) {
		if builds.Add(1) == 1 {
			panic("boom")
		}
		return []byte("{\"ok\":true}\n"), nil
	}
	spec := JobSpec{Figures: []string{"3"}}
	a, err := s.Submit(spec, "alice")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, StateFailed)
	if st := a.Status(); !strings.Contains(st.Error, "panic: boom") {
		t.Fatalf("failed job's error %q does not name the panic", st.Error)
	}
	if got := s.Registry().Snapshot().Counters["service.job_panics"]; got != 1 {
		t.Fatalf("service.job_panics = %d, want 1", got)
	}
	_, records := s.flightrec.records(0)
	var panicRec *FlightRecord
	for i := range records {
		if records[i].Kind == "panic" {
			panicRec = &records[i]
		}
	}
	if panicRec == nil || panicRec.JobID != a.ID() || panicRec.Err != "boom" ||
		!strings.Contains(panicRec.Stack, "runJob") {
		t.Fatalf("flight recorder panic record = %+v, want job %s's panic and stack", panicRec, a.ID())
	}

	b, err := s.Submit(spec, "alice")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, b, StateDone)
	c, err := s.Submit(JobSpec{Figures: []string{"5"}}, "bob")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, StateDone)
	if n := builds.Load(); n != 3 {
		t.Fatalf("%d builds, want 3 (the panicked one, its retry, the next job)", n)
	}
}

// TestHealthzAndMetrics smoke-tests the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health.Status != "ok" || health.Draining {
		t.Fatalf("healthz = %s %+v", resp.Status, health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := snap.Counters["service.jobs_accepted"]; !ok {
		t.Fatalf("metrics missing service counters: %v", snap.Counters)
	}
}

// TestSubmitRejectsBadSpecs covers the HTTP 400 path.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"not-json":      "{",
		"unknown-field": `{"figures":["5"],"bogus":1}`,
		"no-figures":    `{"figures":[]}`,
		"bad-figure":    `{"figures":["12"]}`,
		"bad-schema":    `{"schema":"nope/v1","figures":["5"]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", name, resp.Status)
		}
	}
}
