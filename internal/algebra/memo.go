package algebra

import (
	"sync"
	"sync/atomic"

	"relquery/internal/governor"
)

// Memo is the engine's one compute-once store — subexpression results per
// call and per process, plan facts, relqueryd's parsed expressions — with
// one set of rules (DESIGN.md, "Caching"):
//
//   - A key is computed once: a caller that asks while another computes it
//     waits for that result.
//   - Errors are never stored — they may depend on the limits of whoever
//     computed. A waiter whose leader failed asks again and, finding
//     nothing, computes for itself under its own governor.
//   - A waiter waits under its own governor (Governor.Wait): its context or
//     deadline ending ends the wait, whatever the leader is doing.
//   - Past a weight bound the store is dropped wholesale: no eviction order
//     to maintain on the hit path, and the bound only has to stop a stream of
//     distinct keys from growing the process without limit.
//
// A key is bytes the caller may reuse once Do returns: it is looked up
// without a copy and copied only when a miss stores it.
//
// Waiting cannot deadlock as long as a computation asks the store only for
// keys smaller than its own in a well-founded order; the evaluator's follow
// the expression tree.
type Memo[V any] struct {
	max   int64         // resident weight bound; 0 is unbounded
	weigh func(V) int64 // nil weighs every value 1

	mu      sync.Mutex
	entries map[string]*memoCell[V]
	weight  int64
	misses  int
	dropped int
	hits    atomic.Int64 // counted outside mu: a hit takes the lock once
}

// memoCell is one key's value, readable once done is closed; ok is false
// when the computation failed and the entry has left the store.
type memoCell[V any] struct {
	done chan struct{}
	v    V
	ok   bool
}

// NewMemo returns an empty store holding at most max weight, each value
// weighing weigh(v), or 1 under a nil weigh; max 0 is unbounded.
func NewMemo[V any](max int64, weigh func(V) int64) *Memo[V] {
	return &Memo[V]{max: max, weigh: weigh, entries: make(map[string]*memoCell[V])}
}

// Do returns the value under key: the stored one, the one a concurrent
// caller is computing once it lands, or compute's own, which it stores. hit
// reports that this call did not run compute. gov is the caller's governor
// and bounds only its waiting.
func (m *Memo[V]) Do(gov *governor.Governor, key []byte, compute func() (V, error)) (v V, hit bool, err error) {
	for {
		m.mu.Lock()
		e, found := m.entries[string(key)]
		if !found {
			break
		}
		m.mu.Unlock()
		if err := gov.Wait(e.done); err != nil {
			return v, false, err
		}
		if e.ok {
			m.hits.Add(1)
			return e.v, true, nil
		}
	}
	e := &memoCell[V]{done: make(chan struct{})}
	stored := string(key)
	m.entries[stored] = e
	m.misses++
	m.mu.Unlock()
	// Deferred so that a panicking compute still releases its waiters.
	defer m.settle(stored, e)
	e.v, err = compute()
	e.ok = err == nil
	return e.v, false, err
}

// settle publishes e to its waiters and accounts for it: a failure leaves
// the store, a value is weighed and, should it take the store past the
// bound, everything resident before it is dropped.
func (m *Memo[V]) settle(key string, e *memoCell[V]) {
	w := int64(1)
	if e.ok && m.weigh != nil {
		w = m.weigh(e.v)
	}
	m.mu.Lock()
	switch {
	case m.entries[key] != e: // dropped while in flight: not stored, nothing to account for
	case !e.ok, m.max > 0 && w > m.max: // a failure, or a value the bound cannot hold
		delete(m.entries, key)
	case m.max > 0 && m.weight+w > m.max:
		delete(m.entries, key)
		m.dropLocked()
		m.entries[key] = e
		m.weight = w
	default:
		m.weight += w
	}
	m.mu.Unlock()
	close(e.done)
}

func (m *Memo[V]) dropLocked() int {
	n := len(m.entries)
	m.dropped += n
	m.entries = make(map[string]*memoCell[V])
	m.weight = 0
	return n
}

// Drop empties the store and returns the number of entries dropped. A
// computation in flight still serves its waiters; its value is not stored.
func (m *Memo[V]) Drop() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropLocked()
}

// Counters reports the lifetime counters — calls served from the store,
// computations started, entries dropped by Drop or by the bound — and the
// resident entries and their weight.
func (m *Memo[V]) Counters() (hits, misses, dropped, entries int, weight int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int(m.hits.Load()), m.misses, m.dropped, len(m.entries), m.weight
}
