package interp_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/interp"
	"lpbuf/internal/ir"
	"lpbuf/internal/profile"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestProfilesGolden pins the interpreter's raw results and profile
// counts on the 11 Table 1 programs and on their traditional and
// aggressive transformed programs. Profiles steer inlining, hyperblock
// formation, the buffer planner and Figure 3, so a faster interpreter
// must reproduce every count, not only the figures built on them.
// Regenerate with:
//
//	go test ./internal/interp -run TestProfilesGolden -update
func TestProfilesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every benchmark twice")
	}
	var sb strings.Builder
	for _, b := range suite.All() {
		prog := b.Build()
		writeRun(t, &sb, b.Name+"/original", prog)
		for _, cfg := range []core.Config{core.Traditional(256), core.Aggressive(256)} {
			c, err := core.Compile(prog, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", b.Name, cfg.Name, err)
			}
			writeRun(t, &sb, b.Name+"/"+cfg.Name, c.TransformedIR)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "profiles.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("profiles drifted from %s at line %d\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("profiles drifted from %s: %d lines, want %d", path, len(gl), len(wl))
}

// writeRun interprets prog with profiling on and writes one header
// line (ops, return value, final-memory hash) and then every profile
// count, functions and keys in sorted order.
func writeRun(t *testing.T, sb *strings.Builder, name string, prog *ir.Program) {
	t.Helper()
	prof := profile.New()
	res, err := interp.Run(prog, interp.Options{Profile: prof})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(sb, "%s ops=%d ret=%d mem=%x total=%d\n", name, res.Ops, res.Ret,
		sha256.Sum256(res.Mem), prof.TotalOps)
	fns := make([]string, 0, len(prof.Funcs))
	for fn := range prof.Funcs {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		fp := prof.Funcs[fn]
		fmt.Fprintf(sb, " %s calls=%d ops=%d\n", fn, fp.Calls, fp.Ops)
		writeCounts(sb, "block", fp.Block)
		edges := make([]profile.Edge, 0, len(fp.Edge))
		for e := range fp.Edge {
			edges = append(edges, e)
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].From != edges[j].From {
				return edges[i].From < edges[j].From
			}
			return edges[i].To < edges[j].To
		})
		for _, e := range edges {
			fmt.Fprintf(sb, "  edge %d->%d %d\n", e.From, e.To, fp.Edge[e])
		}
		writeCounts(sb, "bexec", fp.BranchExec)
		writeCounts(sb, "btaken", fp.BranchTaken)
		writeCounts(sb, "callsite", fp.CallSite)
	}
}

func writeCounts[K ir.BlockID | int](sb *strings.Builder, kind string, m map[K]int64) {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Fprintf(sb, "  %s %d %d\n", kind, k, m[k])
	}
}
