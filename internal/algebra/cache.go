package algebra

import (
	"strings"
	"sync"

	"relquery/internal/join"
	"relquery/internal/obs"
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
// Under the same key the cache keeps each join node's planning facts
// (join.Facts: GYO tree, cover and AGM bound, simulated peaks): they are
// functions of the node's inputs, which the key determines, so a later
// request for the same expression over the same content plans nothing —
// and, like a result, a fact needs no invalidation: an upload changes a
// fingerprint and misses. Facts steer the strategy choice and admission,
// never an answer, so even a colliding fingerprint cannot corrupt one.
//
// A SubexprCache is safe for concurrent use; the parallel evaluator's
// workers share one. Only successful evaluations are cached (errors may
// depend on per-call budgets). The zero value is not ready — use
// NewSubexprCache.
type SubexprCache struct {
	mu            sync.Mutex
	entries       map[string]*relation.Relation
	facts         map[string]*join.Facts
	hits          int
	misses        int
	invalidations int
}

// factsMax bounds resident plan facts; past it they are dropped wholesale.
// An entry is its key and a hundred-odd bytes, so the bound only guards
// against an adversarial stream of distinct expressions.
const factsMax = 4096

// NewSubexprCache returns an empty cache.
func NewSubexprCache() *SubexprCache {
	return &SubexprCache{entries: make(map[string]*relation.Relation), facts: make(map[string]*join.Facts)}
}

// contentKey is the cache key of a node against db: the node's text, then
// the name and fingerprint of every relation it references, in first-use
// order. An empty text keys the join of the bare operands themselves.
func contentKey(text string, operands []string, db relation.Database) string {
	const missing = "!missing"
	fingerprint := func(name string) string {
		if r, ok := db[name]; ok {
			return relation.Fingerprint(r)
		}
		return missing // the evaluation will fail; the key stays deterministic
	}
	size := len(text)
	for _, name := range operands {
		size += len(name) + len(fingerprint(name)) + 2
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(text)
	for _, name := range operands {
		b.WriteByte('\x00')
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(fingerprint(name))
	}
	return b.String()
}

// plan returns the plan of the join node keyed key over inputs, its facts
// taken from the store — or entered into it, the first time — and whether
// they were there, which it also reports to m. A nil cache plans from
// nothing and reports nothing.
func (c *SubexprCache) plan(key string, m *obs.Metrics, inputs []*relation.Relation) (*join.Plan, bool) {
	if c == nil {
		p := join.NewPlan(inputs...)
		p.Metrics = m
		return p, false
	}
	c.mu.Lock()
	facts, hit := c.facts[key]
	if !hit {
		if len(c.facts) >= factsMax {
			clear(c.facts)
		}
		facts = new(join.Facts)
		c.facts[key] = facts
	}
	c.mu.Unlock()
	m.PlanFacts(hit)
	p := facts.Plan(inputs...)
	p.Metrics = m
	return p, hit
}

// OperandPlan returns the plan of the natural join of the base relations e
// references, in first-use order — the flattened n-ary join relqueryd's
// pre-queue admission gate asks about — over stored facts like any join
// node's. A nil cache plans from nothing.
func (c *SubexprCache) OperandPlan(e Expr, db relation.Database, m *obs.Metrics) *join.Plan {
	operands := e.Operands()
	inputs := make([]*relation.Relation, 0, len(operands))
	for _, name := range operands {
		if r, ok := db[name]; ok {
			inputs = append(inputs, r)
		}
	}
	key := ""
	if c != nil {
		key = contentKey("", operands, db)
	}
	p, _ := c.plan(key, m, inputs)
	return p
}

// do returns the cached result for key or computes, stores and returns
// it, and reports whether it was served from the cache, for the
// evaluator's trace spans and metrics. Concurrent callers with the same
// key may both compute (the per-call memo already collapses duplicates
// within one evaluation); the last writer wins, which is harmless because
// equal keys imply equal results.
func (c *SubexprCache) do(k string, compute func() (*relation.Relation, error)) (*relation.Relation, bool, error) {
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

// Reset drops every result, keeping the hit/miss counters and counting
// the dropped entries as invalidations, and returns the number dropped. It
// is about memory: results are whole relations. The plan facts stay — they
// are small, bounded in number and exactly as valid as before.
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
