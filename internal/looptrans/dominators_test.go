package looptrans_test

import (
	"sync"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/ir"
	"lpbuf/internal/looptrans"
)

// reachesAvoiding reports whether block to is reachable from the entry
// of f without passing through block avoid.
func reachesAvoiding(f *ir.Func, avoid, to ir.BlockID) bool {
	if f.Entry == avoid {
		return false
	}
	seen := map[ir.BlockID]bool{f.Entry: true}
	stack := []ir.BlockID{f.Entry}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == to {
			return true
		}
		b := f.Block(id)
		if b == nil {
			continue
		}
		for _, s := range b.Succs() {
			if s != avoid && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// TestDominatorsMatchReachability checks the bitset dominators against
// the definition on every function of the 11 benchmarks: a dominates b
// exactly when b is a or cannot be reached from the entry without a.
func TestDominatorsMatchReachability(t *testing.T) {
	for _, bm := range suite.All() {
		p := bm.Build()
		for _, name := range p.Order {
			f := p.Funcs[name]
			f.RemoveUnreachable()
			dom := looptrans.Dominators(f)
			for _, a := range f.Blocks {
				for _, b := range f.Blocks {
					want := a.ID == b.ID || !reachesAvoiding(f, a.ID, b.ID)
					if got := dom.Dominates(a.ID, b.ID); got != want {
						t.Fatalf("%s/%s: Dominates(B%d, B%d) = %v, want %v",
							bm.Name, name, a.ID, b.ID, got, want)
					}
				}
			}
			if dom.Dominates(f.Entry, 1<<30) || dom.Dominates(1<<30, f.Entry) {
				t.Fatalf("%s/%s: a block outside the function takes part in dominance", bm.Name, name)
			}
		}
	}
}

// transformed caches every function of the 11 benchmarks'
// aggressively compiled programs, the IR loop analysis sees in the
// later compile passes.
var transformed struct {
	once  sync.Once
	funcs []*ir.Func
	err   error
}

// BenchmarkFindLoops runs loop analysis over every function of the
// benchmarks' aggressively transformed programs.
func BenchmarkFindLoops(b *testing.B) {
	transformed.once.Do(func() {
		for _, bm := range suite.All() {
			c, err := core.Compile(bm.Build(), core.Aggressive(256))
			if err != nil {
				transformed.err = err
				return
			}
			for _, name := range c.TransformedIR.Order {
				transformed.funcs = append(transformed.funcs, c.TransformedIR.Funcs[name])
			}
		}
	})
	if transformed.err != nil {
		b.Fatal(transformed.err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range transformed.funcs {
			looptrans.FindLoops(f)
		}
	}
}
