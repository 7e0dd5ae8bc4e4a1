package vliw_test

import (
	"testing"

	"lpbuf/internal/core"
	"lpbuf/internal/loopbuffer"
	"lpbuf/internal/verify/gen"
	"lpbuf/internal/verify/oracle"
	"lpbuf/internal/vliw"
)

// TestCorpusReachesRegionRunner pins the oracle corpus's reach into the
// region runner: its fast-vs-interpretive contract only checks the
// per-trip accounting if generated programs, compiled at O3, enter
// planned loop regions at their heads and straight regions past their
// heads. A change to the generator, the buffer planner or the region
// builder that stops either would leave the contract checking nothing
// there.
func TestCorpusReachesRegionRunner(t *testing.T) {
	const seeds, capacity = 40, 64
	entries, midEntries := 0, 0
	defer vliw.SetRegionEnterHook(func(pl *vliw.PlannedLoop, pastHead bool) {
		if pastHead {
			midEntries++
		} else if pl != nil {
			entries++
		}
	})()
	o3 := oracle.Levels()[3]
	reached, reachedMid := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		c, err := core.Compile(gen.Program(seed), o3)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		w, err := c.Weights()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before, beforeMid := entries, midEntries
		if _, err := vliw.Run(c.Code, loopbuffer.Plan(c.Code, w, capacity), vliw.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if entries > before {
			reached++
		}
		if midEntries > beforeMid {
			reachedMid++
		}
	}
	t.Logf("%d of %d programs entered planned loop regions, %d entries; %d entered straight regions past their heads, %d entries",
		reached, seeds, entries, reachedMid, midEntries)
	if reached < seeds/2 {
		t.Fatalf("only %d of %d O3 corpus programs entered a planned loop region at %d ops",
			reached, seeds, capacity)
	}
	// About one generated program in eight branches into the middle of
	// a straight run (5 of these 40).
	if reachedMid < seeds/20 {
		t.Fatalf("only %d of %d O3 corpus programs entered a straight region past its head",
			reachedMid, seeds)
	}
}
