package runner

import (
	"errors"
	"sync"
)

// Flight is a singleflight group: concurrent Do calls with the same
// key share one execution of fn. Unlike a cache it holds no results —
// once the in-flight call finishes, the key is forgotten — so callers
// layer it over their own memoization (check cache, then Do a fn that
// re-checks and fills the cache). A panicking fn is forgotten too: its
// waiters get ErrFlightPanicked, and the panic goes on up the calling
// goroutine's stack.
//
// The zero value is ready to use.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*call
}

type call struct {
	wg  sync.WaitGroup
	v   any
	err error
}

// Do runs fn for key, or waits for an identical in-flight call and
// shares its result. shared reports whether this caller piggybacked on
// another call's execution.
func (f *Flight) Do(key string, fn func() (any, error)) (v any, shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = map[string]*call{}
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		c.wg.Wait()
		return c.v, true, c.err
	}
	c := &call{}
	c.wg.Add(1)
	f.calls[key] = c
	f.mu.Unlock()

	// Until fn returns, the call reads as failed, so a panic that
	// unwinds through here releases its waiters and forgets the key on
	// the way up.
	c.err = ErrFlightPanicked
	defer func() {
		c.wg.Done()
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
	}()
	c.v, c.err = fn()
	return c.v, false, c.err
}

// ErrFlightPanicked is what callers waiting on an in-flight call get
// when its fn panics.
var ErrFlightPanicked = errors.New("in-flight call panicked")
