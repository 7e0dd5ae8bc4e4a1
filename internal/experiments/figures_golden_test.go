package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFigures3And5Golden pins the rendered Figure 3 and Figure 5 (at
// the paper's 16, 32 and 64 operations) byte for byte. Both read the
// planner's per-loop weights and the exact per-loop buffer statistics,
// which no baseline covers (simstats.json pins Figures 7 and 8, the
// headline and the shoot-out), so a change in where those weights come
// from or in how loop statistics are accounted shows up here. Refresh
// with
//
//	go test ./internal/experiments -run TestFigures3And5Golden -update
//
// only for a change meant to move these figures.
func TestFigures3And5Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and simulates the aggressive suite")
	}
	s := New()
	var sb strings.Builder
	f3, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(RenderFig3(f3))
	for _, sz := range []int{16, 32, 64} {
		f5, err := s.Figure5(sz)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString("\n")
		sb.WriteString(RenderFig5(f5))
	}
	got := []byte(sb.String())
	golden := filepath.Join("testdata", "figures35.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Figures 3 and 5 drifted from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
