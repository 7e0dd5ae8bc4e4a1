package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lpbuf/internal/obs"
)

// TestSnapshotConcurrentWithJobs proves the registry-backed Metrics
// gives consistent reads while jobs are running: snapshots taken
// mid-execution (both runner.Snapshot and the raw registry snapshot)
// must be internally sane, and the final counts must be exact. Run
// with -race (CI does) to catch unsynchronized access.
func TestSnapshotConcurrentWithJobs(t *testing.T) {
	m := NewMetrics()
	tr := obs.NewTrace(0)
	r := New(4, m, nil, tr)

	const jobs = 200
	var ran atomic.Int64

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Snapshot()
				if snap.JobsFailed != 0 {
					t.Errorf("mid-run snapshot reports failures: %+v", snap)
					return
				}
				if int64(len(snap.Jobs)) > snap.JobsRun {
					t.Errorf("more job records (%d) than jobs run (%d)",
						len(snap.Jobs), snap.JobsRun)
					return
				}
				reg := m.Registry().Snapshot()
				if reg.Counters["runner.jobs_run"] < 0 {
					t.Error("negative counter")
					return
				}
				if _, err := json.Marshal(reg); err != nil {
					t.Errorf("registry snapshot not marshalable: %v", err)
					return
				}
			}
		}()
	}

	err := r.Each(context.Background(), jobs, func(i int) error {
		return r.Job(KindSimulate, fmt.Sprintf("job%03d", i), func() error {
			m.CacheHit()
			m.RunMiss()
			ran.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	snap := m.Snapshot()
	if snap.JobsRun != jobs || ran.Load() != jobs {
		t.Fatalf("jobs run = %d (ran %d), want %d", snap.JobsRun, ran.Load(), jobs)
	}
	if len(snap.Jobs) != jobs {
		t.Fatalf("job records = %d, want %d", len(snap.Jobs), jobs)
	}
	reg := m.Registry().Snapshot()
	if reg.Counters["runner.jobs_run"] != jobs {
		t.Fatalf("registry jobs_run = %d, want %d", reg.Counters["runner.jobs_run"], jobs)
	}
	if reg.Counters["runner.compile_cache_hits"] != jobs ||
		reg.Counters["runner.run_cache_misses"] != jobs {
		t.Fatalf("cache counters wrong: %+v", reg.Counters)
	}
	if reg.Counters["runner.kind.simulate.jobs"] != jobs {
		t.Fatalf("kind counter = %d, want %d", reg.Counters["runner.kind.simulate.jobs"], jobs)
	}
	if got := reg.Gauges["runner.peak_in_flight"]; got < 1 || got > 4 {
		t.Fatalf("peak in flight = %v, want 1..4", got)
	}
	if reg.Histograms["runner.job_wall_ms"].Count != jobs {
		t.Fatalf("wall histogram count = %d, want %d",
			reg.Histograms["runner.job_wall_ms"].Count, jobs)
	}
	// One span per job was recorded.
	spans := 0
	var buf jsonCounter
	if err := obs.WriteChromeTrace(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.b, &file); err != nil {
		t.Fatal(err)
	}
	for _, ev := range file.TraceEvents {
		if ev.Name == "job.simulate" {
			spans++
		}
	}
	if spans != jobs {
		t.Fatalf("job spans = %d, want %d", spans, jobs)
	}
}

// jsonCounter is a minimal io.Writer accumulating bytes.
type jsonCounter struct{ b []byte }

func (j *jsonCounter) Write(p []byte) (int, error) {
	j.b = append(j.b, p...)
	return len(p), nil
}
