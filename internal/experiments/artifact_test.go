package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpbuf/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenArtifact builds a small artifact with fixed values covering
// every section of the schema.
func goldenArtifact() *Artifact {
	return &Artifact{
		Schema:      ArtifactSchema,
		Benchmarks:  []string{"adpcmenc", "g724dec"},
		BufferSizes: []int{16, 256},
		Figure7: map[string][]Fig7Row{
			"aggressive":  {{Bench: "adpcmenc", Ratios: map[int]float64{16: 0, 256: 0.999}}},
			"traditional": {{Bench: "adpcmenc", Ratios: map[int]float64{16: 0, 256: 0}}},
		},
		Figure8a: []Fig8aRow{{Bench: "adpcmenc", Speedup: 2.5, CodeSize: 1.25, TotalFetch: 1.1, MemFetch: 0.05}},
		Figure8b: []Fig8bRow{{Bench: "adpcmenc", BaselineBuffered: 0.66, TransformedBuffered: 0.14}},
		Figure3: &Fig3{
			ConsumersStatic:  map[int]int64{1: 10},
			ConsumersDynamic: map[int]int64{1: 1000},
			Durations:        map[int]int64{2: 500},
			Overlap:          map[int]int64{3: 200},
			PredicatedLoops:  12, TotalLoops: 40,
			SensitiveDynamic: 2100, IssuedDynamic: 10000,
			MaxLiveMax: 9, SlotModelOK: false, OverflowLoops: 1, ExtraDefines: 4,
		},
		Figure5: []*Fig5{{
			BufferOps: 16,
			Loops: []Fig5Loop{{Label: "postfilter:B", Ops: 12, Offset: 0, Entries: 3,
				Iterations: 30, BufferedIterations: 27, OpsBuffered: 324, OpsMemory: 36}},
			PFIssueFromBuffer:    0.0123,
			TotalIssueFromBuffer: 0.159,
		}},
		Encoding: []EncodingRow{{Bench: "adpcmenc", StaticOps: 100, Guarded: 20,
			ReplicaDefines: 2, FullBits: 3500, SlotBits: 3366}},
		Headline: &Headline{BufferIssueTraditional: 0.387, BufferIssueAggressive: 0.89,
			AvgSpeedup: 1.81, FetchPowerBaseline: 0.654, FetchPowerTransformed: 0.277},
		Runner: &runner.Snapshot{
			JobsRun: 6, JobsFailed: 0,
			CacheHits: 4, CacheMisses: 2, RunHits: 1, RunMisses: 3,
			PeakInFlight: 2,
			Kinds: map[string]runner.KindSnapshot{
				"compile":  {Jobs: 2, WallMS: 1200.5},
				"simulate": {Jobs: 3, WallMS: 850.25},
				"analyze":  {Jobs: 1, WallMS: 0.5},
			},
			Jobs: []runner.JobRecord{
				{Key: "compile/adpcmenc/aggressive", Kind: "compile", WallMS: 1200.5, OK: true},
				{Key: "simulate/adpcmenc/aggressive@256", Kind: "simulate", WallMS: 300, OK: true},
			},
		},
	}
}

// TestArtifactGoldenSchema pins the JSON artifact schema: any change
// to field names, nesting, or the schema string shows up as a golden
// diff and must be paired with an ArtifactSchema version bump.
//
// One change went in without a bump: the runner section lost its
// "retries" counter and its "reduce" job kind when the job graph gave
// way to parallel loops. lpbufd's content-addressed artifacts never
// carry the runner section (it is a timing record, not a function of
// the spec), so every store key and every stored artifact's bytes stay
// valid; only `lpbuf -json` output differs, and only in that section.
func TestArtifactGoldenSchema(t *testing.T) {
	got, err := goldenArtifact().Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "artifact_schema.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact schema drifted from %s (run `go test ./internal/experiments -run Golden -update` "+
			"after bumping ArtifactSchema)\ngot:\n%s", golden, got)
	}
}

// TestArtifactRoundTrip checks the artifact decodes back to the same
// structure (the bench trajectory diffing relies on this).
func TestArtifactRoundTrip(t *testing.T) {
	a := goldenArtifact()
	data, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ArtifactSchema {
		t.Fatalf("schema: %q", back.Schema)
	}
	redata, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, redata) {
		t.Fatal("artifact does not round-trip")
	}
}

// TestArtifactOmitsEmptySections checks that sections that did not run
// are absent rather than null/empty.
func TestArtifactOmitsEmptySections(t *testing.T) {
	data, err := NewArtifact().Encode()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"figure3", "figure5", "figure7", "figure8a", "figure8b", "encoding", "headline", "runner"} {
		if _, present := m[key]; present {
			t.Fatalf("empty artifact carries section %q", key)
		}
	}
	for _, key := range []string{"schema", "benchmarks", "buffer_sizes"} {
		if _, present := m[key]; !present {
			t.Fatalf("empty artifact lacks %q", key)
		}
	}
}

// TestArtifactRenderEverySection: an artifact carrying every section
// prints each section's table, the shoot-out included, in the order of
// `lpbuf -all` — the output both a local run and `lpbuf -submit` show.
func TestArtifactRenderEverySection(t *testing.T) {
	a := goldenArtifact()
	a.Shootout = []ShootoutRow{{Bench: "g724dec", Kernels: 5, Compared: 5, Proven: 4,
		HeurSumII: 20, OptSumII: 20, HeurCycles: 1000, OptCycles: 1000,
		HeurBufferPct: 90.5, OptBufferPct: 90.5, HeurStaticOps: 300, OptStaticOps: 300}}
	want := strings.Join([]string{
		RenderFig7("Figure 7(a): % instruction issue from loop buffer, traditional optimization",
			a.Figure7["traditional"], a.BufferSizes),
		RenderFig7("Figure 7(b): % instruction issue from loop buffer, hyperblock transformations",
			a.Figure7["aggressive"], a.BufferSizes),
		RenderFig8a(a.Figure8a),
		RenderFig8b(a.Figure8b),
		RenderFig3(a.Figure3),
		RenderFig5(a.Figure5[0]),
		RenderShootout(a.Shootout),
		RenderEncoding(a.Encoding),
		RenderHeadline(a.Headline),
	}, "\n") + "\n"
	var got bytes.Buffer
	a.Render(&got)
	if got.String() != want {
		t.Fatalf("Render output differs from the per-section tables in -all order\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
	if !strings.Contains(got.String(), "Scheduler shoot-out") {
		t.Errorf("rendered artifact lacks the shoot-out table:\n%s", got.String())
	}
	got.Reset()
	NewArtifact().Render(&got)
	if got.Len() != 0 {
		t.Errorf("empty artifact rendered %q", got.String())
	}
}
