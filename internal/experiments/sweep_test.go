package experiments

import (
	"reflect"
	"sync"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/obs"
)

// TestSweepStatsMatchSolo is the suite-level half of the batch engine's
// bit-exactness contract: a batched, folded-stats sweep (RunSweepAt —
// what Figure 7 and SimStats now run) must report Stats identical to a
// solo full-event simulation of the same benchmark at the same
// capacity. The solo side compiles directly through core — bypassing
// the suite's run cache — so the comparison cannot be satisfied by a
// cache hit, and runs with an event-emitting Obs so folded mode is
// compared against the instrumented path, not against itself.
func TestSweepStatsMatchSolo(t *testing.T) {
	names := Benchmarks()
	if testing.Short() {
		names = names[:3]
	}
	sizes := []int{64, 256}
	s := New()
	for _, name := range names {
		runs, err := s.RunSweepAt(name, "aggressive", sizes)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := suite.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		cfg := core.Aggressive(256)
		cfg.Name = "aggressive"
		cfg.TraceLabel = name
		cfg.Obs = obs.New(obs.Config{Metrics: true, SimEvents: true})
		c, err := core.Compile(b.Build(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, sz := range sizes {
			res, err := c.RunWithBuffer(sz)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(runs[i].Stats, res.Stats) {
				t.Errorf("%s@%d: sweep stats differ from solo run:\nsweep: %+v\nsolo:  %+v",
					name, sz, runs[i].Stats, res.Stats)
			}
		}
	}
}

// TestSweepSharesRunCache pins the memoization contract between sweeps
// and point queries: a sweep populates the same cache RunAt reads, and
// an earlier RunAt's entry survives a later sweep pointer-stable.
func TestSweepSharesRunCache(t *testing.T) {
	s := New()
	r0, err := s.RunAt("adpcmenc", "aggressive", 256)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.RunSweepAt("adpcmenc", "aggressive", []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if runs[1] != r0 {
		t.Error("sweep replaced an existing cached run instead of reusing it")
	}
	r1, err := s.RunAt("adpcmenc", "aggressive", 64)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != runs[0] {
		t.Error("RunAt did not serve the sweep-populated cache entry")
	}
	// One compile, and exactly one simulated batch + one solo run:
	// RunAt(256) missed, the sweep missed only at 64, RunAt(64) hit.
	snap := s.Metrics()
	if snap.RunMisses != 2 {
		t.Errorf("run misses = %d, want 2 (solo 256, sweep 64)", snap.RunMisses)
	}
}

// TestSimulationReportsToRequester pins where a simulation's counters
// go when suites share a Cache: to the suite that asked for it, not to
// the suite whose compile the Cache holds. In lpbufd the compiling
// suite belongs to an earlier job whose registry is already folded.
func TestSimulationReportsToRequester(t *testing.T) {
	cc := NewCache()
	a := NewWithOptions(Options{Cache: cc, Obs: &obs.Obs{Reg: obs.NewRegistry()}})
	b := NewWithOptions(Options{Cache: cc, Obs: &obs.Obs{Reg: obs.NewRegistry()}})
	simRuns := func(s *Suite) int64 { return s.obs.Reg.Counter("sim.runs").Value() }
	if _, err := a.RunSweepAt("adpcmenc", "aggressive", []int{256}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunSweepAt("adpcmenc", "aggressive", []int{64}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunAt("adpcmenc", "aggressive", 128); err != nil {
		t.Fatal(err)
	}
	if got, want := b.Metrics().RunMisses, int64(2); got != want {
		t.Fatalf("suite B run misses = %d, want %d", got, want)
	}
	if ga, gb := simRuns(a), simRuns(b); ga != 1 || gb != 2 {
		t.Errorf("sim.runs: compiling suite %d, want 1; requesting suite %d, want 2", ga, gb)
	}
}

// TestConcurrentSweepsShareOneBatch checks that identical sweeps
// requested at the same time run one batched simulation between them.
func TestConcurrentSweepsShareOneBatch(t *testing.T) {
	s := NewWithOptions(Options{Obs: &obs.Obs{Reg: obs.NewRegistry()}})
	sizes := []int{64, 256}
	const callers = 4
	out := make([][]*Run, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			out[i], errs[i] = s.RunSweepAt("adpcmenc", "aggressive", sizes)
		}()
	}
	close(start)
	wg.Wait()
	for i := range callers {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(out[i], out[0]) || out[i][0] != out[0][0] {
			t.Fatalf("caller %d got different runs", i)
		}
	}
	if n := s.obs.Reg.Counter("sim.runs").Value(); n != int64(len(sizes)) {
		t.Errorf("sim.runs = %d, want %d (one batch of %d plans)", n, len(sizes), len(sizes))
	}
	snap := s.Metrics()
	if snap.RunMisses != int64(len(sizes)) || snap.RunHits != int64((callers-1)*len(sizes)) {
		t.Errorf("run misses %d, hits %d", snap.RunMisses, snap.RunHits)
	}
}
