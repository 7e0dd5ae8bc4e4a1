package vliw_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/loopbuffer"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/vliw"
)

// TestFastPathDifferential pins the loop-replay kernel's bit-exactness
// contract: for every Table 1 benchmark, both paper configurations and
// three buffer capacities, a live run with the pre-decoded fast path
// must be indistinguishable from the interpretive path — same return
// value, same final memory, same Stats (including per-loop buffer
// hit/miss splits), the same PMU samples and the same cycle-level obs
// event stream, event for event. Each capacity's plan folded over one
// sampled plan-free execution must report the live run's Stats,
// samples and counter-track series.
func TestFastPathDifferential(t *testing.T) {
	benches := suite.All()
	capacities := []int{16, 64, 256}
	if testing.Short() {
		benches = benches[:4]
		capacities = []int{64}
	}
	for _, b := range benches {
		for _, mk := range []func(int) core.Config{core.Traditional, core.Aggressive} {
			cfg := mk(256)
			b, cfg := b, cfg
			t.Run(fmt.Sprintf("%s/%s", b.Name, cfg.Name), func(t *testing.T) {
				t.Parallel()
				c, err := core.Compile(b.Build(), cfg)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				x, err := vliw.Execute(c.Code, vliw.Options{PMU: sampling})
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				w := x.Weights()
				for _, capacity := range capacities {
					plan := loopbuffer.Plan(c.Code, w, capacity)
					label := fmt.Sprintf("%s/%s@%d", b.Name, cfg.Name, capacity)
					run := func(noFast bool) (*vliw.Result, *obs.Obs) {
						o := obs.New(obs.Config{Metrics: true, SimEvents: true})
						res, err := vliw.Run(c.Code, plan, vliw.Options{
							Obs:        o,
							TraceLabel: label,
							NoFastPath: noFast,
							PMU:        sampling,
						})
						if err != nil {
							t.Fatalf("capacity %d noFast=%v: %v", capacity, noFast, err)
						}
						return res, o
					}
					fast, fastObs := run(false)
					slow, slowObs := run(true)

					if fast.Ret != slow.Ret {
						t.Errorf("capacity %d: ret %d (fast) != %d (interpretive)",
							capacity, fast.Ret, slow.Ret)
					}
					if !bytes.Equal(fast.Mem, slow.Mem) {
						t.Errorf("capacity %d: final memory differs", capacity)
					}
					if !reflect.DeepEqual(fast.Stats, slow.Stats) {
						t.Errorf("capacity %d: stats differ:\nfast: %+v\nslow: %+v",
							capacity, fast.Stats, slow.Stats)
						for k, fl := range fast.Stats.Loops {
							if sl := slow.Stats.Loops[k]; sl == nil || *fl != *sl {
								t.Errorf("capacity %d: loop %s: fast %+v slow %+v",
									capacity, k, fl, sl)
							}
						}
					}
					if !fast.Profile.Equal(slow.Profile) {
						t.Errorf("capacity %d: samples differ (fast vs interpretive)", capacity)
					}
					fold, err := x.Fold(plan, label)
					if err != nil {
						t.Fatalf("capacity %d: fold: %v", capacity, err)
					}
					if !reflect.DeepEqual(fold.Stats, fast.Stats) {
						t.Errorf("capacity %d: stats differ:\nfold: %+v\nlive: %+v",
							capacity, fold.Stats, fast.Stats)
					}
					if !fold.Profile.Equal(fast.Profile) || !reflect.DeepEqual(series(fold), series(fast)) {
						t.Errorf("capacity %d: fold's samples or series differ from the live run's", capacity)
					}
					if ft, st := fastObs.Sim.Total(), slowObs.Sim.Total(); ft != st {
						t.Errorf("capacity %d: event totals differ: %d (fast) != %d (interpretive)",
							capacity, ft, st)
					}
					fe, se := fastObs.Sim.Events(), slowObs.Sim.Events()
					if len(fe) != len(se) {
						t.Fatalf("capacity %d: retained events: %d (fast) != %d (interpretive)",
							capacity, len(fe), len(se))
					}
					for i := range fe {
						if fe[i] != se[i] {
							t.Fatalf("capacity %d: event %d differs:\nfast: %+v\nslow: %+v",
								capacity, i, fe[i], se[i])
						}
					}
				}
			})
		}
	}
}

// sampling is the differential tests' PMU clock: denser than the
// default period, so short benchmarks still take samples.
var sampling = &pmu.Config{Period: 512, Seed: 5}

// series is a result's counter-track points.
func series(r *vliw.Result) []pmu.Point {
	d := pmu.NewDocument(pmu.Config{}, []*pmu.Profile{r.Profile})
	return d.Profiles[0].Series
}
