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

// batchRing is large enough that no test program's event stream wraps,
// so retained events are the complete stream and can be compared
// exactly.
const batchRing = 1 << 20

func eventsFor(o *obs.Obs, label string) []obs.SimEvent {
	var out []obs.SimEvent
	for _, ev := range o.Sim.Events() {
		if ev.Run == label {
			out = append(out, ev)
		}
	}
	return out
}

// TestRunBatchMatchesSolo is the batch engine's bit-exactness contract:
// running N plans as one batch must reproduce each plan's solo run
// exactly — return value, final memory, Stats (including per-loop
// splits), and the per-run cycle-level event stream, event for event.
// Covers both a plain self-loop schedule and a modulo-scheduled nest,
// with a full plan, an empty plan, and a nil plan side by side (so
// planned and unplanned accounts share one architectural execution),
// plus a call-heavy program.
func TestRunBatchMatchesSolo(t *testing.T) {
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
			labels := []string{"run-full", "run-empty", "run-nil"}

			solos := make([]*Result, len(plans))
			soloEvents := make([][]obs.SimEvent, len(plans))
			for i, plan := range plans {
				o := obs.New(obs.Config{SimEvents: true, SimRingSize: batchRing})
				res, err := Run(code, plan, Options{Obs: o, TraceLabel: labels[i]})
				if err != nil {
					t.Fatalf("solo %s: %v", labels[i], err)
				}
				solos[i] = res
				soloEvents[i] = eventsFor(o, labels[i])
			}

			o := obs.New(obs.Config{SimEvents: true, SimRingSize: batchRing})
			batch, err := RunBatch(code, plans, BatchOptions{
				Options: Options{Obs: o},
				Labels:  labels,
			})
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for i := range plans {
				if batch[i].Ret != solos[i].Ret {
					t.Errorf("%s: ret %d (batch) != %d (solo)", labels[i], batch[i].Ret, solos[i].Ret)
				}
				if !bytes.Equal(batch[i].Mem, solos[i].Mem) {
					t.Errorf("%s: final memory differs", labels[i])
				}
				if !reflect.DeepEqual(batch[i].Stats, solos[i].Stats) {
					t.Errorf("%s: stats differ:\nbatch: %+v\nsolo:  %+v",
						labels[i], batch[i].Stats, solos[i].Stats)
				}
				be := eventsFor(o, labels[i])
				if len(be) != len(soloEvents[i]) {
					t.Fatalf("%s: %d events (batch) != %d (solo)", labels[i], len(be), len(soloEvents[i]))
				}
				for j := range be {
					if be[j] != soloEvents[i][j] {
						t.Fatalf("%s: event %d differs:\nbatch: %+v\nsolo:  %+v",
							labels[i], j, be[j], soloEvents[i][j])
					}
				}
			}
			// Batched accounts share the architectural result.
			if !bytes.Equal(solos[0].Mem, solos[2].Mem) || solos[0].Ret != solos[2].Ret {
				t.Error("solo runs under different plans diverged architecturally")
			}
		})
	}
}

// TestBatchFoldedStatsOnly pins the folded mode: Stats and registry
// folding identical to full-event mode, zero events emitted.
func TestBatchFoldedStatsOnly(t *testing.T) {
	code, err := sched.Schedule(kernelLoopProgram(150), machine.Default(), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plans := []*BufferPlan{planSections(code, 256), nil}

	full := obs.New(obs.Config{Metrics: true, SimEvents: true, SimRingSize: batchRing})
	want, err := RunBatch(code, plans, BatchOptions{Options: Options{Obs: full}})
	if err != nil {
		t.Fatal(err)
	}
	folded := obs.New(obs.Config{Metrics: true, SimEvents: true, SimRingSize: batchRing})
	got, err := RunBatch(code, plans, BatchOptions{
		Options:         Options{Obs: folded},
		FoldedStatsOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plans {
		if !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
			t.Errorf("plan %d: folded stats differ:\nfolded: %+v\nfull:   %+v",
				i, got[i].Stats, want[i].Stats)
		}
	}
	if n := folded.Sim.Total(); n != 0 {
		t.Errorf("folded run emitted %d events, want 0", n)
	}
	if full.Sim.Total() == 0 {
		t.Error("full-event run emitted no events (test would be vacuous)")
	}
	// Registry folding still happens in folded mode.
	if runs := folded.Reg.Counter("sim.runs").Value(); runs != int64(len(plans)) {
		t.Errorf("folded sim.runs = %d, want %d", runs, len(plans))
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

// TestBatchStressShared is the -race stress test: 8 goroutines run
// batched sims concurrently over two shared Codes, so decoders race on
// each FuncCode's image. Every run must produce the same answer.
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
				plans := []*BufferPlan{planSections(code, 256), planSections(code, 64), nil}
				res, err := RunBatch(code, plans, BatchOptions{FoldedStatsOnly: true})
				if err != nil {
					errs <- err
					return
				}
				for i, r := range res {
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
