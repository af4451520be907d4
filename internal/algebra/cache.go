package algebra

import (
	"strings"
	"sync"

	"relquery/internal/relation"
)

// SubexprCache memoizes evaluated subexpressions across Eval calls. The
// key is the canonicalized expression text plus the content fingerprints
// (relation.Fingerprint) of every database relation the expression
// references, so a hit is sound even when the database has been mutated
// between calls: a changed relation changes its fingerprint and misses.
//
// This is what makes the repeated legs of the paper's gadget queries
// cheap: φ_G = π_F(T) ∗ ∏*_j π_{T_j}(T) projects the same relation m+1
// times, and every decider that re-evaluates φ_G against an unchanged
// R_G reuses each leg instead of recomputing it.
//
// A SubexprCache is safe for concurrent use; the parallel evaluator's
// workers share one. Only successful evaluations are cached (errors may
// depend on per-call budgets). The zero value is not ready — use
// NewSubexprCache.
type SubexprCache struct {
	mu            sync.Mutex
	entries       map[string]*relation.Relation
	hits          int
	misses        int
	invalidations int
}

// NewSubexprCache returns an empty cache.
func NewSubexprCache() *SubexprCache {
	return &SubexprCache{entries: make(map[string]*relation.Relation)}
}

// key builds the cache key for evaluating e against db.
func (c *SubexprCache) key(e Expr, db relation.Database) string {
	var b strings.Builder
	b.WriteString(e.String())
	b.WriteByte('\x00')
	b.WriteString(relation.FingerprintDatabase(db, e.Operands()))
	return b.String()
}

// Do returns the cached result for (e, db) or computes, stores and
// returns it. Concurrent callers with the same key may both compute (the
// per-call memo already collapses duplicates within one evaluation); the
// last writer wins, which is harmless because equal keys imply equal
// results.
func (c *SubexprCache) Do(e Expr, db relation.Database, compute func() (*relation.Relation, error)) (*relation.Relation, error) {
	r, _, err := c.do(e, db, compute)
	return r, err
}

// do is Do exposing whether the result was served from the cache, for
// the evaluator's trace spans and metrics.
func (c *SubexprCache) do(e Expr, db relation.Database, compute func() (*relation.Relation, error)) (*relation.Relation, bool, error) {
	k := c.key(e, db)
	c.mu.Lock()
	if r, ok := c.entries[k]; ok {
		c.hits++
		c.mu.Unlock()
		return r, true, nil
	}
	c.misses++
	c.mu.Unlock()
	r, err := compute()
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	c.entries[k] = r
	c.mu.Unlock()
	return r, false, nil
}

// Counters reports the cache's lifetime counters: hits, misses, entries
// invalidated by Reset, and resident entries. Unlike the per-evaluation
// obs.Metrics cache counters (which also count per-call memo hits), these
// describe only this shared cache.
func (c *SubexprCache) Counters() (hits, misses, invalidations, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.invalidations, len(c.entries)
}

// Reset drops every entry, keeping the hit/miss counters and counting the
// dropped entries as invalidations. It returns the number of entries
// dropped.
func (c *SubexprCache) Reset() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := len(c.entries)
	c.invalidations += dropped
	c.entries = make(map[string]*relation.Relation)
	return dropped
}

// memoTable is the per-Eval-call memo: concurrency-safe and
// compute-once. When two parallel workers request the same subexpression
// the second blocks until the first finishes, so each distinct
// subexpression is evaluated exactly once per call.
type memoTable struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
}

type memoEntry struct {
	done chan struct{}
	r    *relation.Relation
	err  error
}

func newMemoTable() *memoTable {
	return &memoTable{entries: make(map[string]*memoEntry)}
}

// do returns the memoized result for key, computing it via compute on
// first request, and reports whether the result was served from the memo
// (true exactly when this call did not run compute). Safe for concurrent
// use; deadlock-free because the compute graph follows the expression
// tree (a computation only ever waits on strictly smaller
// subexpressions). Compute-once even under parallel evaluation: the
// second requester of a key blocks on the first's channel, so hit/miss
// counts derived from the returned flag are deterministic.
func (m *memoTable) do(key string, compute func() (*relation.Relation, error)) (*relation.Relation, bool, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		<-e.done
		return e.r, true, e.err
	}
	e := &memoEntry{done: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()
	e.r, e.err = compute()
	close(e.done)
	return e.r, false, e.err
}
