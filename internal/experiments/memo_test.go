package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"lpbuf/internal/runner"
)

// TestMemoOncePerKey hammers one memo from many concurrent loops on one
// Runner and asserts exactly one computation per distinct key, with
// every caller seeing that computation's value (run under -race in CI).
func TestMemoOncePerKey(t *testing.T) {
	r := runner.New(4, nil, nil, nil)
	var m memo[string, *int]
	var execs atomic.Int64
	const loops, keys = 8, 5
	var mu sync.Mutex
	seen := map[string]*int{}
	var wg sync.WaitGroup
	for range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := r.Each(context.Background(), keys, func(k int) error {
				key := fmt.Sprintf("shared-%d", k)
				v, _, err := m.get(key, func() (*int, error) {
					execs.Add(1)
					n := len(key)
					return &n, nil
				})
				if err != nil {
					return err
				}
				mu.Lock()
				defer mu.Unlock()
				if prev, ok := seen[key]; ok && prev != v {
					return fmt.Errorf("%s: two values", key)
				}
				seen[key] = v
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := execs.Load(); n != keys {
		t.Fatalf("%d computations for %d distinct keys", n, keys)
	}
	if n := len(m.values()); n != keys {
		t.Fatalf("memo holds %d values, want %d", n, keys)
	}
}

// TestMemoForgetsFailures checks that a failed computation is not
// kept: peek and values do not report it, and the next call for its
// key computes again.
func TestMemoForgetsFailures(t *testing.T) {
	var m memo[string, int]
	if _, _, err := m.get("k", func() (int, error) { return 0, errors.New("transient") }); err == nil {
		t.Fatal("failure not reported")
	}
	if _, ok := m.peek("k"); ok || len(m.values()) != 0 {
		t.Fatal("failed computation kept")
	}
	v, hit, err := m.get("k", func() (int, error) { return 3, nil })
	if err != nil || hit || v != 3 {
		t.Fatalf("retry after a failure: %v %v %v", v, hit, err)
	}
	if v, ok := m.peek("k"); !ok || v != 3 {
		t.Fatalf("peek = %v %v, want 3", v, ok)
	}
	if v, hit, _ := m.get("k", func() (int, error) { return 4, nil }); !hit || v != 3 {
		t.Fatalf("second get = %v (hit %v), want the memoized 3", v, hit)
	}
}
