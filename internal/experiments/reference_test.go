package experiments

import (
	"reflect"
	"sync"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/interp"
)

// TestReferenceRunShared pins the shared reference run. A suite that
// compiles one benchmark under three configs interprets the original
// program once: every Compiled.Ref is the same pointer. Sharing changes
// no output: each compile's pass stats, buffer sweep and shoot-out row
// equal those of an unshared core.Compile.
func TestReferenceRunShared(t *testing.T) {
	const name = "adpcmenc"
	b, _ := suite.ByName(name)
	s := New()
	type pair struct {
		shared, unshared *core.Compiled
		run256, solo256  *Run
	}
	pairs := map[string]pair{}
	var ref *interp.Result
	for _, cfg := range []string{"traditional", "aggressive", "aggressive-optimal"} {
		c, _, err := s.compiled(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = c.Ref
		}
		if c.Ref != ref {
			t.Errorf("%s: Compiled.Ref %p, want the shared %p", cfg, c.Ref, ref)
		}
		u, err := core.Compile(b.Build(), c.Config)
		if err != nil {
			t.Fatal(err)
		}
		if u.Ref == c.Ref || !reflect.DeepEqual(u.Ref, c.Ref) {
			t.Errorf("%s: unshared reference must be an equal copy", cfg)
		}
		if u.Stats != c.Stats {
			t.Errorf("%s: pass stats %+v, unshared %+v", cfg, c.Stats, u.Stats)
		}
		runs, err := s.RunSweepAt(name, cfg, BufferSizes)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := u.RunSweep(BufferSizes)
		if err != nil {
			t.Fatal(err)
		}
		p := pair{shared: c, unshared: u}
		for i, sz := range BufferSizes {
			if !reflect.DeepEqual(runs[i].Stats, solo[i].Stats) {
				t.Errorf("%s@%d: stats %+v, unshared %+v", cfg, sz, runs[i].Stats, solo[i].Stats)
			}
			if sz == 256 {
				static := 0
				for _, fc := range u.Code.Funcs {
					static += fc.OpCount()
				}
				p.run256 = runs[i]
				p.solo256 = &Run{Stats: solo[i].Stats, StaticOps: static}
			}
		}
		pairs[cfg] = p
	}
	h, o := pairs["aggressive"], pairs["aggressive-optimal"]
	got := shootoutRow(name, h.shared, o.shared, h.run256, o.run256)
	want := shootoutRow(name, h.unshared, o.unshared, h.solo256, o.solo256)
	if got != want {
		t.Errorf("shoot-out row %+v, unshared %+v", got, want)
	}
	if n := len(s.cc.refs.values()); n != 1 {
		t.Errorf("cache holds %d reference runs, want 1", n)
	}
}

// TestReferenceRunConcurrentCompiles compiles and simulates two
// configs of one benchmark at the same time on a fresh suite. Both get
// the one reference run; under -race this shows that compiles and
// simulations only read its result and profile.
func TestReferenceRunConcurrentCompiles(t *testing.T) {
	const name = "adpcmenc"
	s := New()
	cfgs := []string{"traditional", "aggressive"}
	refs := make([]*interp.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, errs[i] = s.RunAt(name, cfg, 256); errs[i] != nil {
				return
			}
			var c *core.Compiled
			c, _, errs[i] = s.compiled(name, cfg)
			if c != nil {
				refs[i] = c.Ref
			}
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cfgs[i], err)
		}
	}
	if refs[0] == nil || refs[0] != refs[1] {
		t.Errorf("concurrent compiles got references %p and %p, want one shared", refs[0], refs[1])
	}
}
