package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"lpbuf/internal/runner"
)

// TestConcurrentFiguresCompileOnce is the subsystem's stress test (run
// under -race in CI): every figure requested concurrently on one
// suite, with the invariant that each of the 22 (benchmark, config)
// pairs compiles exactly once per process.
func TestConcurrentFiguresCompileOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full suite")
	}
	s := NewWithOptions(Options{Workers: 8})
	sizes := []int{64, 256}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	launch := func(fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				errs <- err
			}
		}()
	}
	var fig7t, fig7a []Fig7Row
	var fig8a []Fig8aRow
	launch(func() error { rows, err := s.Figure7("traditional", sizes); fig7t = rows; return err })
	launch(func() error { rows, err := s.Figure7("aggressive", sizes); fig7a = rows; return err })
	launch(func() error { rows, err := s.Figure8a(); fig8a = rows; return err })
	launch(func() error { _, err := s.Figure8b(); return err })
	launch(func() error { _, err := s.Figure3(); return err })
	launch(func() error { _, err := s.ComputeHeadline(); return err })
	launch(func() error { _, err := s.Figure5(32); return err })
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := s.Metrics()
	if snap.CacheMisses != 22 {
		t.Fatalf("compiled %d times, want exactly 22 (11 benchmarks x 2 configs)", snap.CacheMisses)
	}
	if snap.CacheHits == 0 {
		t.Fatal("no compile-cache hits despite concurrent figure requests")
	}
	if snap.JobsFailed != 0 {
		t.Fatalf("%d jobs failed", snap.JobsFailed)
	}
	if snap.Kinds["compile"].Jobs == 0 || snap.Kinds["simulate"].Jobs == 0 || snap.Kinds["analyze"].Jobs == 0 {
		t.Fatalf("missing job kinds in metrics: %+v", snap.Kinds)
	}

	// The rows must be identical to a serial recomputation on the same
	// suite (everything cached now): same order, same values.
	serial, err := s.Figure7("aggressive", sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig7a, serial) {
		t.Fatalf("parallel Figure7 differs from serial:\n%v\n%v", fig7a, serial)
	}
	if len(fig7t) != 11 || len(fig8a) != 11 {
		t.Fatalf("row counts: fig7t=%d fig8a=%d", len(fig7t), len(fig8a))
	}
	for i, name := range Benchmarks() {
		if fig8a[i].Bench != name {
			t.Fatalf("fig8a row %d is %q, want table order %q", i, fig8a[i].Bench, name)
		}
	}
	// And recomputation after the stress is still compile-free.
	if after := s.Metrics(); after.CacheMisses != 22 {
		t.Fatalf("serial recomputation recompiled: %d misses", after.CacheMisses)
	}
}

// TestFigureFailureCancels checks the error path: a figure request for
// a bogus config fails the compile job, stops the loop, and surfaces a
// clear error without compiling anything.
func TestFigureFailureCancels(t *testing.T) {
	s := New()
	_, err := s.Figure7("nosuch", []int{16})
	if err == nil {
		t.Fatal("expected error for unknown config")
	}
	if !strings.Contains(err.Error(), `unknown config "nosuch"`) {
		t.Fatalf("error lacks cause: %v", err)
	}
	if snap := s.Metrics(); snap.CacheMisses != 0 {
		t.Fatalf("%d compiles ran for an invalid config", snap.CacheMisses)
	}
}

// TestRunAtMemoized checks that repeated identical runs simulate once.
func TestRunAtMemoized(t *testing.T) {
	s := New()
	r1, err := s.RunAt("adpcmenc", "aggressive", 256)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.RunAt("adpcmenc", "aggressive", 256)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second identical run was not served from the cache")
	}
	snap := s.Metrics()
	if snap.RunMisses != 1 || snap.RunHits != 1 {
		t.Fatalf("run cache counters: %d misses, %d hits", snap.RunMisses, snap.RunHits)
	}
}

// TestSuiteObserverSeesEvents checks the progress stream fires through
// the Options hook.
func TestSuiteObserverSeesEvents(t *testing.T) {
	var mu sync.Mutex
	kinds := map[runner.Kind]int{}
	s := NewWithOptions(Options{Workers: 2, OnEvent: func(e runner.Event) {
		if e.Type != runner.EventDone {
			return
		}
		mu.Lock()
		kinds[e.Kind]++
		mu.Unlock()
	}})
	if _, err := s.Figure7("aggressive", []int{256}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(kinds) != 2 || kinds[runner.KindCompile] != 11 || kinds[runner.KindSimulate] != 11 {
		t.Fatalf("event counts: %v", kinds)
	}
}

// TestJobRecordContract pins the job records that perfbench reads to
// time each (benchmark, config) op: a reproduce-shaped round (Figure 7
// under both configs, then 8a, 8b and the headline) and a shoot-out,
// each on a fresh suite, record exactly these compile and simulate
// keys, each the given number of times. Other job kinds are not part
// of the contract.
func TestJobRecordContract(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the full suite twice")
	}
	records := func(s *Suite) map[string]int {
		got := map[string]int{}
		for _, j := range s.Metrics().Jobs {
			if j.Kind != string(runner.KindCompile) && j.Kind != string(runner.KindSimulate) {
				continue
			}
			if !j.OK || !strings.HasPrefix(j.Key, j.Kind+"/") {
				t.Errorf("record %+v", j)
			}
			got[j.Key]++
		}
		return got
	}
	check := func(round string, got, want map[string]int) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: job records\n got %v\nwant %v", round, got, want)
		}
	}

	s := New()
	want := map[string]int{}
	for _, cfg := range []string{"traditional", "aggressive"} {
		if _, err := s.Figure7(cfg, []int{64, 256}); err != nil {
			t.Fatal(err)
		}
		for _, name := range Benchmarks() {
			want["compile/"+name+"/"+cfg] = 4
			want["simulate/"+name+"/"+cfg+"/sweep"] = 1
			want["simulate/"+name+"/"+cfg+"@256"] = 3
		}
	}
	if _, err := s.Figure8a(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure8b(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ComputeHeadline(); err != nil {
		t.Fatal(err)
	}
	check("reproduce", records(s), want)

	s = New()
	if _, err := s.Shootout(); err != nil {
		t.Fatal(err)
	}
	want = map[string]int{}
	for _, name := range Benchmarks() {
		for _, cfg := range []string{"aggressive", "aggressive-optimal"} {
			want["compile/"+name+"/"+cfg] = 1
			want["simulate/"+name+"/"+cfg+"@256"] = 1
		}
	}
	check("shootout", records(s), want)
}
