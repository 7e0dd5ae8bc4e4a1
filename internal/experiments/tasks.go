package experiments

import (
	"context"
	"fmt"

	"lpbuf/internal/core"
	"lpbuf/internal/power"
	"lpbuf/internal/runner"
)

// This file runs the figure computations on the suite's runner: each
// figure is a parallel loop with one task per benchmark (or per
// benchmark/config pair). A task records its compile job, then its
// simulate or analyze job; both go through the Suite's memos, so
// concurrent figure requests — and repeated requests within one
// process — never compile a (bench, cfg) pair or simulate a (bench,
// cfg, buffer) triple twice. Each task fills its own result slot, and
// the figure reduces the slots after the loop in benchmark-table
// order, so every renderer's output, floating-point sums included, is
// byte-identical to a serial run regardless of completion order.

func compileKey(name, cfg string) string { return "compile/" + name + "/" + cfg }

func simulateKey(name, cfg string, bufferOps int) string {
	return fmt.Sprintf("simulate/%s/%s@%d", name, cfg, bufferOps)
}

func sweepKey(name, cfg string) string { return "simulate/" + name + "/" + cfg + "/sweep" }

// compileJob records the memoized compile of one benchmark/config.
func (s *Suite) compileJob(name, cfg string) (*core.Compiled, error) {
	var c *core.Compiled
	err := s.run.Job(runner.KindCompile, compileKey(name, cfg), func() (err error) {
		c, _, err = s.compiled(name, cfg)
		return err
	})
	return c, err
}

// simulateJob records one memoized, verified simulation.
func (s *Suite) simulateJob(name, cfg string, bufferOps int) (*Run, error) {
	var r *Run
	err := s.run.Job(runner.KindSimulate, simulateKey(name, cfg, bufferOps), func() (err error) {
		r, err = s.RunAt(name, cfg, bufferOps)
		return err
	})
	return r, err
}

// Figure7Ctx is Figure7 with caller-controlled cancellation. Each
// benchmark's sweep is one simulate job — the program executes once
// and is accounted at every buffer size — so the figure records
// 11 compiles and 11 sweep simulates however many sizes the sweep
// covers.
func (s *Suite) Figure7Ctx(ctx context.Context, cfg string, sizes []int) ([]Fig7Row, error) {
	names := Benchmarks()
	rows := make([]Fig7Row, len(names))
	err := s.run.Each(ctx, len(names), func(i int) error {
		name := names[i]
		if _, err := s.compileJob(name, cfg); err != nil {
			return err
		}
		return s.run.Job(runner.KindSimulate, sweepKey(name, cfg), func() error {
			runs, err := s.RunSweepAt(name, cfg, sizes)
			if err != nil {
				return err
			}
			rows[i] = Fig7Row{Bench: name, Ratios: map[int]float64{}}
			for k, sz := range sizes {
				rows[i].Ratios[sz] = runs[k].Stats.BufferIssueRatio()
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// at256 is one benchmark/config's compile and its run at the paper's
// 256-op buffer.
type at256 struct {
	c *core.Compiled
	r *Run
}

// runPairs runs one task per benchmark and config in cfgs: the compile
// job, then the simulate job at the 256-op buffer. out[b][k] holds
// benchmark b, in table order, under cfgs[k].
func (s *Suite) runPairs(ctx context.Context, cfgs ...string) ([][]at256, error) {
	names := Benchmarks()
	out := make([][]at256, len(names))
	for b := range out {
		out[b] = make([]at256, len(cfgs))
	}
	err := s.run.Each(ctx, len(names)*len(cfgs), func(i int) error {
		b, k := i/len(cfgs), i%len(cfgs)
		c, err := s.compileJob(names[b], cfgs[k])
		if err != nil {
			return err
		}
		r, err := s.simulateJob(names[b], cfgs[k], 256)
		out[b][k] = at256{c, r}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Figure8aCtx is Figure8a with caller-controlled cancellation.
func (s *Suite) Figure8aCtx(ctx context.Context) ([]Fig8aRow, error) {
	pairs, err := s.runPairs(ctx, "traditional", "aggressive")
	if err != nil {
		return nil, err
	}
	var rows []Fig8aRow
	for b, name := range Benchmarks() {
		rows = append(rows, fig8aRow(name, pairs[b][0].r, pairs[b][1].r))
	}
	return rows, nil
}

// Figure8bCtx is Figure8b with caller-controlled cancellation.
func (s *Suite) Figure8bCtx(ctx context.Context) ([]Fig8bRow, error) {
	pairs, err := s.runPairs(ctx, "traditional", "aggressive")
	if err != nil {
		return nil, err
	}
	model := power.Default()
	var rows []Fig8bRow
	for b, name := range Benchmarks() {
		rows = append(rows, fig8bRow(model, name, pairs[b][0].r, pairs[b][1].r))
	}
	return rows, nil
}

// ComputeHeadlineCtx is ComputeHeadline with caller-controlled
// cancellation.
func (s *Suite) ComputeHeadlineCtx(ctx context.Context) (*Headline, error) {
	pairs, err := s.runPairs(ctx, "traditional", "aggressive")
	if err != nil {
		return nil, err
	}
	return reduceHeadline(Benchmarks(), pairs), nil
}

// Figure3Ctx is Figure3 with caller-controlled cancellation. Each
// benchmark's predication analysis runs as its own job behind the
// aggressive compile.
func (s *Suite) Figure3Ctx(ctx context.Context) (*Fig3, error) {
	names := Benchmarks()
	parts := make([]*Fig3, len(names))
	err := s.run.Each(ctx, len(names), func(i int) error {
		c, err := s.compileJob(names[i], "aggressive")
		if err != nil {
			return err
		}
		return s.run.Job(runner.KindAnalyze, "analyze/figure3/"+names[i], func() error {
			w, err := c.Weights()
			if err != nil {
				return err
			}
			parts[i] = fig3ForCompiled(c, w)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	out := newFig3()
	for _, p := range parts {
		mergeFig3(out, p)
	}
	return out, nil
}
