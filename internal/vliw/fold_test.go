package vliw

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
	"lpbuf/internal/obs"
	"lpbuf/internal/sched"
)

// batchRing is large enough that no test program's event stream wraps.
const batchRing = 1 << 20

// TestFoldMatchesLive is the fold's bit-exactness contract: folding N
// plans over one plan-free execution must reproduce each plan's live
// run exactly — return value, final memory and Stats (including
// per-loop splits). Covers both a plain self-loop schedule and a
// modulo-scheduled nest, with a full plan, an empty plan, and a nil
// plan folded over the same execution, plus a call-heavy program; the
// live runs emit events, as the live path's callers do.
func TestFoldMatchesLive(t *testing.T) {
	progs := map[string]func() (*sched.Code, error){
		"loop": func() (*sched.Code, error) {
			return sched.Schedule(kernelLoopProgram(200), machine.Default(), sched.Options{})
		},
		"modulo": func() (*sched.Code, error) {
			return sched.Schedule(kernelLoopProgram(200), machine.Default(), sched.Options{EnableModulo: true})
		},
		"calls": func() (*sched.Code, error) {
			return sched.Schedule(callProgram(), machine.Default(), sched.Options{})
		},
	}
	for name, mk := range progs {
		t.Run(name, func(t *testing.T) {
			code, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			plans := []*BufferPlan{
				planSections(code, 256),
				{Capacity: 0},
				nil,
			}
			x, err := Execute(code, Options{})
			if err != nil {
				t.Fatal(err)
			}
			folds, err := x.Fold(plans, make([]string, len(plans)))
			if err != nil {
				t.Fatalf("fold: %v", err)
			}
			for i, plan := range plans {
				o := obs.New(obs.Config{SimEvents: true, SimRingSize: batchRing})
				live, err := Run(code, plan, Options{Obs: o, TraceLabel: "live"})
				if err != nil {
					t.Fatalf("plan %d live: %v", i, err)
				}
				if o.Sim.Total() == 0 {
					t.Fatalf("plan %d: live run emitted no events", i)
				}
				fold := folds[i]
				if fold.Ret != live.Ret {
					t.Errorf("plan %d: ret %d (fold) != %d (live)", i, fold.Ret, live.Ret)
				}
				if !bytes.Equal(fold.Mem, live.Mem) {
					t.Errorf("plan %d: final memory differs", i)
				}
				if !reflect.DeepEqual(fold.Stats, live.Stats) {
					t.Errorf("plan %d: stats differ:\nfold: %+v\nlive: %+v", i, fold.Stats, live.Stats)
				}
			}
		})
	}
}

// TestBatchFoldedStatsOnly pins what a batch of plans folded over one
// execution reports: folded stats only — exact Stats and registry
// totals per plan, and no cycle-level events.
func TestBatchFoldedStatsOnly(t *testing.T) {
	code, err := sched.Schedule(kernelLoopProgram(150), machine.Default(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plans := []*BufferPlan{planSections(code, 256), nil}
	o := obs.New(obs.Config{Metrics: true, SimEvents: true, SimRingSize: batchRing})
	x, err := Execute(code, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	folds, err := x.Fold(plans, make([]string, len(plans)))
	if err != nil {
		t.Fatal(err)
	}
	for i, plan := range plans {
		got := folds[i]
		want, err := Run(code, plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("plan %d: fold stats differ:\nfold: %+v\nlive: %+v", i, got.Stats, want.Stats)
		}
	}
	if n := o.Sim.Total(); n != 0 {
		t.Errorf("execution and folds emitted %d events, want 0", n)
	}
	if runs := o.Reg.Counter("sim.runs").Value(); runs != int64(len(plans)) {
		t.Errorf("sim.runs = %d, want %d (one per fold)", runs, len(plans))
	}
}

// TestFoldRejectsNonSectionPlans pins what the fold accepts: plans whose
// loops are the schedule's loop sections. A loop straddling a section,
// or a section planned twice, is an error; Run accepts both.
func TestFoldRejectsNonSectionPlans(t *testing.T) {
	code, err := sched.Schedule(kernelLoopProgram(50), machine.Default(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x, err := Execute(code, Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := planSections(code, 256)
	if len(plan.Loops) == 0 {
		t.Fatal("no loop sections")
	}
	pl := *plan.Loops[0]
	straddle := pl
	straddle.EndBundle++
	twice := pl
	for name, bad := range map[string]*BufferPlan{
		"straddling": {Capacity: 256, Loops: []*PlannedLoop{&straddle}},
		"twice":      {Capacity: 256, Loops: []*PlannedLoop{&pl, &twice}},
	} {
		if _, err := x.Fold([]*BufferPlan{planSections(code, 256), bad}, []string{"", ""}); err == nil {
			t.Errorf("%s plan folded", name)
		}
		if _, err := Run(code, bad, Options{}); err != nil {
			t.Errorf("%s plan: live run: %v", name, err)
		}
	}
}

// TestDecodedImageBelongsToItsCode pins that a decoded image lives
// with its compile. Two allocations of one schedule each get their own
// image, whose function, ops and call callees all belong to that Code;
// two simulations of one Code reuse one image.
func TestDecodedImageBelongsToItsCode(t *testing.T) {
	mk := func() *sched.Code {
		code, err := sched.Schedule(callProgram(), machine.Default(), sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
	images := func(code *sched.Code) map[string]*decodedFunc {
		t.Helper()
		if _, err := Run(code, nil, Options{}); err != nil {
			t.Fatal(err)
		}
		out := map[string]*decodedFunc{}
		for name, fc := range code.Funcs {
			if df, _ := fc.DecodedImage().(*decodedFunc); df != nil {
				out[name] = df
			} else {
				t.Errorf("%s: not decoded after a run", name)
			}
		}
		return out
	}
	a, b := mk(), mk()
	for _, code := range []*sched.Code{a, b} {
		calls := 0
		for name, df := range images(code) {
			fc := code.Funcs[name]
			if df.fc != fc {
				t.Errorf("%s: image decoded from another Code's function", name)
			}
			for i, db := range df.bundles {
				for j := range db.ops {
					d := &db.ops[j]
					if d.op != fc.Bundles[i].Ops[j].Op {
						t.Fatalf("%s bundle %d: op %d is another Code's op", name, i, j)
					}
					if d.Kind == ir.KindCall {
						calls++
						if d.callee != code.Funcs[d.op.Callee] {
							t.Errorf("%s bundle %d: callee belongs to another Code", name, i)
						}
					}
				}
			}
		}
		if calls == 0 {
			t.Fatal("no decoded call (test would be vacuous)")
		}
	}
	first, again := images(a), images(a)
	for name, df := range first {
		if again[name] != df {
			t.Errorf("%s: second simulation of one Code decoded again", name)
		}
	}
}

// TestBatchStressShared is the -race stress test: 8 goroutines each
// execute and fold a batch of plans concurrently over two shared Codes,
// so decoders race on each FuncCode's image. Every run must produce the
// same answer.
func TestBatchStressShared(t *testing.T) {
	codes := make([]*sched.Code, 2)
	for i := range codes {
		code, err := sched.Schedule(kernelLoopProgram(120), machine.Default(), sched.Options{EnableModulo: i == 1})
		if err != nil {
			t.Fatal(err)
		}
		codes[i] = code
	}
	var want int64
	for i := 0; i < 120; i++ {
		want += int64(3*i-11) * 5
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				code := codes[(g+it)%len(codes)]
				x, err := Execute(code, Options{})
				if err != nil {
					errs <- err
					return
				}
				rs, err := x.Fold([]*BufferPlan{planSections(code, 256), planSections(code, 64), nil}, make([]string, 3))
				if err != nil {
					errs <- err
					return
				}
				for i, r := range rs {
					if r.Ret != want {
						errs <- fmt.Errorf("goroutine %d plan %d: ret %d, want %d", g, i, r.Ret, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
