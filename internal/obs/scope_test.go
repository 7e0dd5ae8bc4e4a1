package obs

import (
	"sync"
	"testing"
)

func TestScopeFoldsIntoParent(t *testing.T) {
	parent := &Obs{Reg: NewRegistry()}
	parent.Reg.Counter("jobs").Add(2)
	parent.Reg.Gauge("inflight").Add(1)
	parent.Reg.Histogram("wall").Observe(100)

	sc := parent.OpenScope(ScopeConfig{Spans: true, SimEvents: true, SimRingSize: 8})
	if sc == nil || sc.Obs() == nil {
		t.Fatal("scope on an enabled Obs must be non-nil")
	}
	if sc.Registry() == parent.Reg {
		t.Fatal("scope must get its own child registry")
	}
	if sc.Trace() == nil || sc.Sim() == nil {
		t.Fatal("scope config asked for spans and sim events")
	}

	// Instrumented work against the scope's Obs.
	so := sc.Obs()
	so.Counter("jobs").Add(3)
	so.Reg.Gauge("inflight").Add(2)
	so.Reg.Gauge("inflight").Add(-2) // net zero: folds as no-op
	so.Reg.Histogram("wall").Observe(7)
	so.Reg.Histogram("wall").Observe(1000)
	so.Reg.Counter("scope.only").Inc()
	sp := so.StartSpan("job")
	sp.End()

	// Before close, the parent is untouched.
	if got := parent.Reg.Counter("jobs").Value(); got != 2 {
		t.Fatalf("parent counter before Close = %d, want 2", got)
	}

	sc.Close()
	sc.Close() // idempotent

	snap := parent.Reg.Snapshot()
	if snap.Counters["jobs"] != 5 {
		t.Fatalf("folded counter = %d, want 5", snap.Counters["jobs"])
	}
	if snap.Counters["scope.only"] != 1 {
		t.Fatalf("scope-only counter = %d, want 1", snap.Counters["scope.only"])
	}
	if snap.Gauges["inflight"] != 1 {
		t.Fatalf("folded gauge = %v, want 1 (net-zero scope delta)", snap.Gauges["inflight"])
	}
	h := snap.Histograms["wall"]
	if h.Count != 3 || h.Sum != 1107 {
		t.Fatalf("folded histogram count/sum = %d/%d, want 3/1107", h.Count, h.Sum)
	}
	// Bucket-exact fold: parent buckets must be the sum of both sides,
	// not just count/sum.
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("folded bucket total = %d, want 3", total)
	}
	// The scope's trace stays readable after Close for per-unit export.
	if sc.Trace() == nil {
		t.Fatal("trace must survive Close")
	}
}

// TestScopeFoldPMUHistogramBucketDrift folds the PMU's per-run sample
// histogram (sim.pmu.samples_per_run, recorded per vliw run or fold) from
// a child scope whose observations land in different log2 buckets than
// the parent's: the parent saw sparse profiles (magnitudes 0-8), the
// child saw dense ones (thousands). The fold must merge per-bucket —
// drifted buckets appear with the child's counts, shared buckets sum,
// and parent-only buckets survive untouched.
func TestScopeFoldPMUHistogramBucketDrift(t *testing.T) {
	parent := &Obs{Reg: NewRegistry()}
	for _, v := range []int64{0, 3, 8} { // buckets 0, 2, 4
		parent.Reg.Histogram("sim.pmu.samples_per_run").Observe(v)
	}
	parent.Reg.Counter("sim.pmu.samples").Add(11)

	sc := parent.OpenScope(ScopeConfig{})
	for _, v := range []int64{8, 2048, 5000} { // buckets 4, 12, 13
		sc.Obs().Reg.Histogram("sim.pmu.samples_per_run").Observe(v)
	}
	sc.Obs().Counter("sim.pmu.samples").Add(7056)
	sc.Close()

	snap := parent.Reg.Snapshot()
	if got := snap.Counters["sim.pmu.samples"]; got != 11+7056 {
		t.Fatalf("folded sample counter = %d, want %d", got, 11+7056)
	}
	h := snap.Histograms["sim.pmu.samples_per_run"]
	if h.Count != 6 || h.Sum != 0+3+8+8+2048+5000 {
		t.Fatalf("folded histogram count/sum = %d/%d, want 6/%d", h.Count, h.Sum, 0+3+8+8+2048+5000)
	}
	byUB := map[int64]int64{}
	for _, b := range h.Buckets {
		byUB[b.UpperBound] = b.Count
	}
	want := map[int64]int64{
		1:    1, // parent-only: the 0 observation
		4:    1, // parent-only: 3
		16:   2, // shared: 8 from each side sums
		4096: 1, // child-only drift: 2048
		8192: 1, // child-only drift: 5000
	}
	for ub, n := range want {
		if byUB[ub] != n {
			t.Fatalf("bucket le=%d count = %d, want %d (buckets %v)", ub, byUB[ub], n, h.Buckets)
		}
	}
	if len(byUB) != len(want) {
		t.Fatalf("folded histogram has %d buckets, want %d: %v", len(byUB), len(want), h.Buckets)
	}
}

func TestScopeNesting(t *testing.T) {
	parent := &Obs{Reg: NewRegistry()}
	child := parent.OpenScope(ScopeConfig{})
	grand := child.Obs().OpenScope(ScopeConfig{})
	grand.Obs().Counter("deep").Add(4)

	grand.Close()
	if got := child.Registry().Counter("deep").Value(); got != 4 {
		t.Fatalf("grandchild fold into child = %d, want 4", got)
	}
	if got := parent.Reg.Counter("deep").Value(); got != 0 {
		t.Fatalf("parent touched before child close: %d", got)
	}
	child.Close()
	if got := parent.Reg.Counter("deep").Value(); got != 4 {
		t.Fatalf("child fold into parent = %d, want 4", got)
	}
}

func TestScopeNilSafety(t *testing.T) {
	var o *Obs
	sc := o.OpenScope(ScopeConfig{Spans: true, SimEvents: true})
	if sc != nil {
		t.Fatal("OpenScope on nil Obs must return nil")
	}
	sc.Close()
	if sc.Obs() != nil || sc.Registry() != nil || sc.Trace() != nil || sc.Sim() != nil {
		t.Fatal("nil scope accessors must return nil")
	}
	// Instrumentation through a nil scope is the usual nil-sink no-op.
	sc.Obs().Counter("c").Inc()
	sc.Obs().StartSpan("s").End()

	// A scope without a parent registry still works for spans.
	noReg := (&Obs{}).OpenScope(ScopeConfig{Spans: true})
	if noReg == nil || noReg.Trace() == nil {
		t.Fatal("metrics-less parent must still yield a span scope")
	}
	if noReg.Registry() != nil {
		t.Fatal("no parent registry: child registry would be unfoldable")
	}
	noReg.Close()
}

func TestScopeFoldConcurrent(t *testing.T) {
	parent := &Obs{Reg: NewRegistry()}
	const scopes, perScope = 16, 500
	var wg sync.WaitGroup
	for i := 0; i < scopes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := parent.OpenScope(ScopeConfig{})
			c := sc.Obs().Counter("work")
			h := sc.Obs().Reg.Histogram("lat")
			for j := 0; j < perScope; j++ {
				c.Inc()
				h.Observe(int64(j))
			}
			sc.Close()
		}()
	}
	wg.Wait()
	if got := parent.Reg.Counter("work").Value(); got != scopes*perScope {
		t.Fatalf("concurrent folds lost updates: %d, want %d", got, scopes*perScope)
	}
	if got := parent.Reg.Snapshot().Histograms["lat"].Count; got != scopes*perScope {
		t.Fatalf("histogram fold lost observations: %d, want %d", got, scopes*perScope)
	}
}

func TestFoldIntoDegenerateCases(t *testing.T) {
	var nilReg *Registry
	r := NewRegistry()
	r.Counter("c").Inc()
	nilReg.FoldInto(r) // no-op
	r.FoldInto(nil)    // no-op
	r.FoldInto(r)      // self-fold must not double
	if got := r.Counter("c").Value(); got != 1 {
		t.Fatalf("self-fold doubled the counter: %d", got)
	}
}
