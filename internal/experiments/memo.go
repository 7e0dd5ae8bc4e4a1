package experiments

import "sync"

// memo computes each key's value at most once and shares it with every
// caller, concurrent ones included: a caller that asks for a key whose
// computation is in flight waits for it instead of starting another.
// A failed computation is forgotten, so the next call for its key
// computes it again. The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{} // closed once v and err are set
	v    V
	err  error
}

// get returns key's value, running compute if no earlier or concurrent
// call has. hit reports that this call did not run compute.
func (m *memo[K, V]) get(key K, compute func() (V, error)) (v V, hit bool, err error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		<-e.done
		return e.v, true, e.err
	}
	if m.entries == nil {
		m.entries = map[K]*memoEntry[V]{}
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()

	e.v, e.err = compute()
	if e.err != nil {
		m.mu.Lock()
		delete(m.entries, key)
		m.mu.Unlock()
	}
	close(e.done)
	return e.v, false, e.err
}

// peek returns key's value if a computation of it has succeeded,
// without waiting for one in flight.
func (m *memo[K, V]) peek(key K) (v V, ok bool) {
	m.mu.Lock()
	e := m.entries[key]
	m.mu.Unlock()
	if e == nil {
		return v, false
	}
	select {
	case <-e.done:
		return e.v, e.err == nil
	default:
		return v, false
	}
}

// values returns every successfully computed value, in no fixed order.
func (m *memo[K, V]) values() []V {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]V, 0, len(m.entries))
	for _, e := range m.entries {
		select {
		case <-e.done:
			if e.err == nil {
				out = append(out, e.v)
			}
		default:
		}
	}
	return out
}
