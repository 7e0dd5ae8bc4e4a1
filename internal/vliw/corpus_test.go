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
// planned loop regions. A change to the generator or the buffer planner
// that stops that would leave the contract checking nothing.
func TestCorpusReachesRegionRunner(t *testing.T) {
	const seeds, capacity = 40, 64
	entries := 0
	defer vliw.SetRegionEnterHook(func(*vliw.PlannedLoop) { entries++ })()
	o3 := oracle.Levels()[3]
	reached := 0
	for seed := int64(0); seed < seeds; seed++ {
		c, err := core.Compile(gen.Program(seed), o3)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		w, err := c.Weights()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		before := entries
		if _, err := vliw.Run(c.Code, loopbuffer.Plan(c.Code, w, capacity), vliw.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if entries > before {
			reached++
		}
	}
	t.Logf("%d of %d programs entered planned loop regions, %d entries", reached, seeds, entries)
	if reached < seeds/2 {
		t.Fatalf("only %d of %d O3 corpus programs entered a planned loop region at %d ops",
			reached, seeds, capacity)
	}
}
