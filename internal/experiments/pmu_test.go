package experiments

import (
	"sort"
	"testing"

	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/power"
)

// TestFigure5PMUGoldenAttribution pins the PMU's fidelity on the
// paper's Figure 5 workload: on g724dec aggressive at a 256-op buffer,
// the sampled ops-weighted energy estimate (Profile.LoopEnergyEstimate)
// must agree with the exact power-model attribution
// (power.Model.Attribute over the run's full per-loop op counts) on
// the PostFilter chain:
//
//  1. the two dominant loops (C_outer and E_outer, each ~8x the next
//     loop) rank identically and their estimates land within 10% of
//     exact;
//  2. every exact top-3 loop appears in the sampled top-6 — exact
//     ranks 3-5 are a near-tie cluster (within 7% of each other) that
//     no sampling density short of full tracing can order, the same
//     caveat any sampling profiler carries for near-tied frames;
//  3. the sampled energy share held by the exact top-3 is at least 90%
//     of the share exact attribution gives them.
//
// Sampling is deterministic (fixed period and seed), so this is a
// golden property, not a flaky statistical one. The test samples
// denser than the default period — g724dec runs short enough that the
// default yields only tens of samples, below what any profile consumer
// would draw rankings from.
func TestFigure5PMUGoldenAttribution(t *testing.T) {
	const bufferOps = 256
	s := NewWithOptions(Options{PMU: &pmu.Config{Period: 16}})
	r, err := s.RunAt("g724dec", "aggressive", bufferOps)
	if err != nil {
		t.Fatal(err)
	}
	if r.Profile == nil {
		t.Fatal("PMU enabled but RunAt returned no profile")
	}
	c, _, err := s.compiled("g724dec", "aggressive")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planFor(c, bufferOps)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]string{}
	for _, pl := range plan.Loops {
		labels[pl.Key()] = pl.Label
	}

	model := power.Default()
	type loopEnergy struct {
		key    string
		energy float64
	}
	rank := func(energies map[string]float64) ([]loopEnergy, float64) {
		var pf []loopEnergy
		var total float64
		for key, e := range energies {
			if !isPostFilterLoop(labels[key]) {
				continue
			}
			pf = append(pf, loopEnergy{key, e})
			total += e
		}
		sort.Slice(pf, func(i, j int) bool {
			if pf[i].energy != pf[j].energy {
				return pf[i].energy > pf[j].energy
			}
			return pf[i].key < pf[j].key
		})
		return pf, total
	}

	// Exact ground truth: attribute fetch energy from the run's full
	// per-loop op counts.
	exactEnergies := map[string]float64{}
	for key, ls := range r.Stats.Loops {
		exactEnergies[key] = model.Attribute(ls.OpsMemory, ls.OpsBuffered, bufferOps).TotalEnergy
	}
	exact, exactTotal := rank(exactEnergies)
	if len(exact) < 3 {
		t.Fatalf("only %d PostFilter loops attributed, want >= 3", len(exact))
	}

	// Sampled view: the estimator over ops-weighted samples.
	sampled, sampledTotal := rank(r.Profile.LoopEnergyEstimate(model))
	if len(sampled) < 3 || sampledTotal == 0 {
		t.Fatalf("sampled estimate covers %d PostFilter loops (total %v), want >= 3",
			len(sampled), sampledTotal)
	}

	// (1) The dominant pair ranks identically and estimates within 10%.
	// A sample's estimate scales as exact/period (each cycle is sampled
	// with probability 1/period), so multiply back up to compare.
	period := s.pmu.Normalized().Period
	for i := 0; i < 2; i++ {
		if sampled[i].key != exact[i].key {
			t.Errorf("sampled rank %d is %s, exact has %s", i+1, sampled[i].key, exact[i].key)
			continue
		}
		scaled := sampled[i].energy * float64(period)
		if rel := scaled/exact[i].energy - 1; rel > 0.10 || rel < -0.10 {
			t.Errorf("%s: sampled estimate %.0f vs exact %.0f (%.1f%% off, want within 10%%)",
				exact[i].key, scaled, exact[i].energy, 100*rel)
		}
	}

	// (2) Exact top-3 within sampled top-6.
	sampledTop6 := map[string]bool{}
	for i := 0; i < 6 && i < len(sampled); i++ {
		sampledTop6[sampled[i].key] = true
	}
	top3 := map[string]bool{}
	var exactTop3 float64
	for _, le := range exact[:3] {
		top3[le.key] = true
		exactTop3 += le.energy
		if !sampledTop6[le.key] {
			t.Errorf("exact top-3 loop %s (%.0f) missing from sampled top-6", le.key, le.energy)
		}
	}

	// (3) The sampled PostFilter energy share of the exact top-3 must
	// be at least 90% of the exact share (the estimate is unbiased; at
	// this density the shares agree to within a few percent).
	var sampledTop3 float64
	for _, le := range sampled {
		if top3[le.key] {
			sampledTop3 += le.energy
		}
	}
	exactShare := exactTop3 / exactTotal
	sampledShare := sampledTop3 / sampledTotal
	if sampledShare < 0.90*exactShare {
		t.Fatalf("sampled top-3 PostFilter share %.1f%%, exact %.1f%%: below 90%% fidelity",
			100*sampledShare, 100*exactShare)
	}
	t.Logf("top-3 %v: exact share %.1f%%, sampled share %.1f%% (%d samples)",
		exact[:3], 100*exactShare, 100*sampledShare, r.Profile.Total())
}

// TestSuiteSimProfiles: a PMU-enabled suite collects exactly its own
// runs' profiles into a valid lpbuf.simprofile/v1 document, and a
// PMU-less suite collects nothing.
func TestSuiteSimProfiles(t *testing.T) {
	s := NewWithOptions(Options{PMU: &pmu.Config{Period: 2048}})
	if _, err := s.RunAt("adpcmenc", "aggressive", 256); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunAt("adpcmenc", "aggressive", 64); err != nil {
		t.Fatal(err)
	}
	doc := s.SimProfiles()
	if doc == nil {
		t.Fatal("PMU-enabled suite returned no document")
	}
	if err := doc.Validate(); err != nil {
		t.Fatalf("document invalid: %v", err)
	}
	if len(doc.Profiles) != 2 {
		t.Fatalf("profiles %d, want 2 (one per buffer size)", len(doc.Profiles))
	}
	for _, p := range doc.Profiles {
		if p.Label == "" || p.TotalSamples == 0 {
			t.Fatalf("degenerate profile %+v", p)
		}
	}
	if doc.Sampling.Period != 2048 {
		t.Fatalf("sampling period %d, want 2048", doc.Sampling.Period)
	}
	// Memoized re-runs keep reporting the same profiles, not duplicates.
	if _, err := s.RunAt("adpcmenc", "aggressive", 256); err != nil {
		t.Fatal(err)
	}
	if again := s.SimProfiles(); len(again.Profiles) != 2 {
		t.Fatalf("re-run grew the document to %d profiles", len(again.Profiles))
	}

	if off := New().SimProfiles(); off != nil {
		t.Fatalf("PMU-less suite returned a document with %d profiles", len(off.Profiles))
	}
}
