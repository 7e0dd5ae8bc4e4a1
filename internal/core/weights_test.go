package core_test

import (
	"fmt"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/interp"
	"lpbuf/internal/profile"
	"lpbuf/internal/sched"
	"lpbuf/internal/verify/gen"
	"lpbuf/internal/verify/oracle"
	"lpbuf/internal/vliw"
)

// TestWeightsMatchInterpreter pins the buffer planner's inputs to the
// interpreter. For every loop section of the 22 Table 1 compiles and of
// the oracle corpus at O1-O3, the weight a plan-free execution measures
// must equal what interpreting the transformed IR gives: Iterations
// the loop block's execution count, Entries the block's profiled edges
// from other blocks. A kernel's Iterations count its head fetches plus
// stages-1 per entry (vliw.Execution.Weights).
func TestWeightsMatchInterpreter(t *testing.T) {
	type compile struct {
		name string
		c    *core.Compiled
	}
	var compiles []compile
	for _, b := range suite.All() {
		for _, cfg := range []core.Config{core.Traditional(256), core.Aggressive(256)} {
			c, err := core.Compile(b.Build(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			compiles = append(compiles, compile{b.Name + "/" + cfg.Name, c})
		}
	}
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		for _, cfg := range oracle.Levels()[1:] {
			c, err := core.Compile(gen.Program(int64(seed)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			compiles = append(compiles, compile{fmt.Sprintf("seed%d/%s", seed, cfg.Name), c})
		}
	}
	loops, executed := 0, 0
	for _, cc := range compiles {
		prof := profile.New()
		if _, err := interp.Run(cc.c.TransformedIR, interp.Options{Profile: prof}); err != nil {
			t.Fatalf("%s: interp: %v", cc.name, err)
		}
		w, err := cc.c.Weights()
		if err != nil {
			t.Fatalf("%s: %v", cc.name, err)
		}
		for _, fname := range cc.c.Code.Prog.Order {
			fp := prof.Funcs[fname]
			for _, sec := range cc.c.Code.Funcs[fname].Sections {
				if !isLoopSection(sec) {
					continue
				}
				loops++
				var want vliw.LoopWeight
				if fp != nil {
					want.Iterations = fp.Block[sec.Block]
					for e, n := range fp.Edge {
						if e.To == sec.Block && e.From != sec.Block {
							want.Entries += n
						}
					}
				}
				if want.Iterations > 0 {
					executed++
				}
				if got := w[vliw.Section{Func: fname, Start: sec.Start}]; got != want {
					t.Errorf("%s: loop %s@%d (kind %d): execution %+v, interpreter %+v",
						cc.name, fname, sec.Start, sec.Kind, got, want)
				}
			}
		}
	}
	t.Logf("%d compiles, %d loop sections, %d executed", len(compiles), loops, executed)
	if executed == 0 {
		t.Fatal("no executed loop section (test would be vacuous)")
	}
}

// isLoopSection recognizes the sections the buffer planner plans:
// kernels and straight self-loops.
func isLoopSection(sec *sched.BlockCode) bool {
	if sec.Kind == sched.KindKernel {
		return true
	}
	if sec.Kind != sched.KindStraight {
		return false
	}
	for _, b := range sec.Bundles {
		for _, so := range b.Ops {
			if so.Op.LoopBack && so.Op.IsBranch() && so.TargetBundle == sec.Start {
				return true
			}
		}
	}
	return false
}
