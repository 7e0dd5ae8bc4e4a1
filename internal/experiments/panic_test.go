package experiments

import (
	"strings"
	"testing"

	"lpbuf/internal/core"
)

// TestPanickingCompileFailsItsFigure drives a real panic through a
// figure: a nil reference run seeded into the cache makes g724dec's
// compile dereference nil. The figure must return an error naming the
// panic rather than crash the process (lpbufd serves every job from
// one), leave no job in flight, and not poison the compile's memo key:
// once the reference is sound again, the same figure computes.
func TestPanickingCompileFailsItsFigure(t *testing.T) {
	s := New()
	if _, _, err := s.cc.refs.get("g724dec", func() (*core.Reference, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	_, err := s.Figure5(16)
	if err == nil || !strings.Contains(err.Error(), "panic: runtime error") {
		t.Fatalf("Figure5 error = %v, want the compile's panic", err)
	}
	if g := s.metrics.Registry().Snapshot().Gauges["runner.jobs_in_flight"]; g != 0 {
		t.Fatalf("jobs_in_flight = %v after the panic, want 0", g)
	}

	s.cc.refs.mu.Lock()
	delete(s.cc.refs.entries, "g724dec")
	s.cc.refs.mu.Unlock()
	if _, err := s.Figure5(16); err != nil {
		t.Fatalf("retry after the panic: %v", err)
	}
}
