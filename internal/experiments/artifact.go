package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"lpbuf/internal/obs"
	"lpbuf/internal/runner"
)

// ArtifactSchema versions the JSON result format written by
// `lpbuf -json`. Bump it on any breaking change to the Artifact
// structure (the golden test pins the current shape).
const ArtifactSchema = "lpbuf.artifact/v1"

// Artifact is the machine-readable counterpart of `lpbuf -all`: every
// figure, the headline aggregates, and the runner's execution counters
// (per-job wall times, compile/simulate split, cache hits/misses, peak
// in-flight). Sections are optional — only the experiments that
// actually ran are present — so per-PR bench trajectories can be
// produced and diffed with any subset of figures.
type Artifact struct {
	Schema      string   `json:"schema"`
	Benchmarks  []string `json:"benchmarks"`
	BufferSizes []int    `json:"buffer_sizes"`

	// Figure7 maps config ("traditional"/"aggressive") to curves.
	Figure7  map[string][]Fig7Row `json:"figure7,omitempty"`
	Figure8a []Fig8aRow           `json:"figure8a,omitempty"`
	Figure8b []Fig8bRow           `json:"figure8b,omitempty"`
	Figure3  *Fig3                `json:"figure3,omitempty"`
	Figure5  []*Fig5              `json:"figure5,omitempty"`
	Encoding []EncodingRow        `json:"encoding,omitempty"`
	Shootout []ShootoutRow        `json:"shootout,omitempty"`
	Headline *Headline            `json:"headline,omitempty"`

	Runner *runner.Snapshot `json:"runner,omitempty"`
	// Metrics embeds the observability registry snapshot (simulator,
	// runner and compile counters) so experiment sweeps carry their
	// own telemetry.
	Metrics *obs.RegistrySnapshot `json:"metrics,omitempty"`
}

// NewArtifact creates an empty artifact for the registered benchmark
// suite and the Figure 7 sweep sizes.
func NewArtifact() *Artifact {
	return &Artifact{
		Schema:      ArtifactSchema,
		Benchmarks:  Benchmarks(),
		BufferSizes: append([]int(nil), BufferSizes...),
	}
}

// Encode renders the artifact as indented JSON with a trailing
// newline.
func (a *Artifact) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the encoded artifact to path.
func (a *Artifact) WriteFile(path string) error {
	data, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// DecodeArtifact parses and schema-checks an encoded artifact (the
// client side of `lpbuf -submit` and cmd/obscheck validation).
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Errorf("artifact schema %q, want %q", a.Schema, ArtifactSchema)
	}
	return &a, nil
}

// Render prints the table of every section the artifact carries, in
// the order and format of `lpbuf -all`: Figures 7, 8a, 8b, 3 and 5,
// the scheduler shoot-out, the encoding costs and the headline. A local
// run and `lpbuf -submit` both print through it, so the two outputs
// are the same bytes.
func (a *Artifact) Render(w io.Writer) {
	for _, cfg := range []string{"traditional", "aggressive"} {
		rows, ok := a.Figure7[cfg]
		if !ok {
			continue
		}
		title := "Figure 7(a): % instruction issue from loop buffer, traditional optimization"
		if cfg == "aggressive" {
			title = "Figure 7(b): % instruction issue from loop buffer, hyperblock transformations"
		}
		fmt.Fprintln(w, RenderFig7(title, rows, a.BufferSizes))
	}
	if a.Figure8a != nil {
		fmt.Fprintln(w, RenderFig8a(a.Figure8a))
	}
	if a.Figure8b != nil {
		fmt.Fprintln(w, RenderFig8b(a.Figure8b))
	}
	if a.Figure3 != nil {
		fmt.Fprintln(w, RenderFig3(a.Figure3))
	}
	for _, f5 := range a.Figure5 {
		fmt.Fprintln(w, RenderFig5(f5))
	}
	if a.Shootout != nil {
		fmt.Fprintln(w, RenderShootout(a.Shootout))
	}
	if a.Encoding != nil {
		fmt.Fprintln(w, RenderEncoding(a.Encoding))
	}
	if a.Headline != nil {
		fmt.Fprintln(w, RenderHeadline(a.Headline))
	}
}
