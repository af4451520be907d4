package algebra

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

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
// Operands and projections of operands are not entries: they are the
// database's relations and facts of them (relation.Relation.Projection),
// found on the relation itself, so the m+1 legs of the paper's
// φ_G = π_F(T) ∗ ∏*_j π_{T_j}(T) are projected once per version of R_G
// whatever the cache, and an entry is a node that joins or projects a
// join.
//
// Under the same key the cache keeps each join node's planning facts
// (join.Facts: GYO tree, cover and AGM bound, simulated peaks): they are
// functions of the node's inputs, which the key determines, so a later
// request for the same expression over the same content plans nothing —
// and, like a result, a fact needs no invalidation: an upload changes a
// fingerprint and misses. Facts steer the strategy choice and admission,
// never an answer, so even a colliding fingerprint cannot corrupt one.
//
// Beside them the cache records the keys asked for since the last Reset,
// as seeded 64-bit digests: a root join node's answer is stored only when
// it is asked for again (Evaluator.EvalTo). Two keys that share a digest
// make a first sight look like a second one, so that answer is stored
// instead of streamed — the same bytes either way.
//
// Both stores are Memos, under its rules. A SubexprCache is safe for
// concurrent use — every request of a relqueryd process shares one. The zero
// value is not ready — use NewSubexprCache.
type SubexprCache struct {
	results *Memo[*relation.Relation]
	// facts is nil in the cache EvalContext makes for one call (Evaluator.
	// Cache): a node repeated inside a call is a result hit and plans nothing.
	facts *Memo[*join.Facts]
	// asked holds the digests of the keys of the nodes EvalTo offered its
	// sink since the last Reset; nil, like facts, in a one-call cache.
	asked *askedKeys
	// written counts the answers streamed past the results (Evaluator.
	// EvalTo): misses that left nothing behind.
	written atomic.Int64
}

// resultsMax bounds a shared cache's resident results, in values (rows ×
// arity over the stored relations): roughly 100 MB of tuples held outside
// every tenant's budget, so a constant and not a tenant's to set. relbench's
// heaviest pass (cyclic_greedy or cyclic_auto: 300 answers of φ_G) holds
// 1.67 M values, 2.2 M while the legs were entries too.
//
// The weight is the rows alone. A resident result can also pin the access
// paths later joins memoized on it (relation.Path), tries and edge
// tables, but those weigh at most a fixed multiple of the
// result's own rows together, and live and die with it, so the bound on
// the rows bounds them too.
const resultsMax = 4 << 20

// factsMax bounds resident plan facts, in entries, and the asked record.
// A fact is its key and under a kilobyte — a one-pass join's shape is the
// bulk of it — so the bound only guards against an adversarial stream of
// distinct expressions.
const factsMax = 4096

// NewSubexprCache returns an empty cache.
func NewSubexprCache() *SubexprCache { return newSubexprCache(resultsMax) }

func newSubexprCache(maxValues int64) *SubexprCache {
	values := func(r *relation.Relation) int64 { return int64(r.Len()) * int64(r.Scheme().Len()) }
	return &SubexprCache{
		results: NewMemo(maxValues, values),
		facts:   NewMemo[*join.Facts](factsMax, nil),
		asked:   &askedKeys{seed: maphash.MakeSeed()},
	}
}

// appendKey appends the cache key of a node against db to dst: the node's
// text, then the name and fingerprint of every relation it references, in
// first-use order.
func appendKey(dst []byte, text string, operands []string, db relation.Database) []byte {
	dst = append(dst, text...)
	for _, name := range operands {
		fingerprint := "!missing" // the evaluation will fail; the key stays deterministic
		if r, ok := db[name]; ok {
			fingerprint = relation.Fingerprint(r)
		}
		dst = append(append(append(append(dst, 0), name...), '='), fingerprint...)
	}
	return dst
}

// plan sets *p to the plan of the join node keyed key over inputs, its
// facts taken from the store — or entered into it, the first time — and
// reports whether they were there, which it also reports to m. Without a
// facts store it plans from nothing and reports nothing.
func (c *SubexprCache) plan(p *join.Plan, key []byte, m *obs.Metrics, inputs []*relation.Relation) bool {
	if c == nil || c.facts == nil {
		*p = new(join.Facts).Plan(inputs...)
		p.Metrics = m
		return false
	}
	facts, hit, _ := c.facts.Do(nil, key, func() (*join.Facts, error) { return new(join.Facts), nil })
	m.PlanFacts(hit)
	*p = facts.Plan(inputs...)
	p.Metrics = m
	return hit
}

// ask records that the node keyed key was asked for and reports whether
// it had been since the last Reset. Without the record nothing has been.
func (c *SubexprCache) ask(key []byte) bool {
	return c.asked != nil && c.asked.add(key)
}

// askedKeys is the record of what was asked: a set of the keys' seeded
// digests that, like a Memo past its bound, is emptied wholesale when it
// would pass factsMax keys. Nothing is computed for a key, so nothing
// waits on one.
type askedKeys struct {
	seed maphash.Seed
	mu   sync.Mutex
	keys map[uint64]struct{}
}

// add records key and reports whether it, or a key of the same digest,
// was recorded already.
func (a *askedKeys) add(key []byte) bool {
	d := maphash.Bytes(a.seed, key)
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.keys[d]; ok {
		return true
	}
	if a.keys == nil {
		a.keys = make(map[uint64]struct{})
	} else if len(a.keys) >= factsMax {
		clear(a.keys)
	}
	a.keys[d] = struct{}{}
	return false
}

// drop forgets every key.
func (a *askedKeys) drop() {
	a.mu.Lock()
	clear(a.keys)
	a.mu.Unlock()
}

// streamed counts an answer written without passing through the results.
func (c *SubexprCache) streamed() {
	if c != nil {
		c.written.Add(1)
	}
}

// Counters reports the result store's lifetime counters: hits, misses,
// entries dropped by Reset or by the bound, and resident entries. A node
// repeated inside one evaluation counts like one repeated across two, and
// an answer streamed past the store counts as a miss.
func (c *SubexprCache) Counters() (hits, misses, invalidations, entries int) {
	hits, misses, invalidations, entries, _ = c.results.Counters()
	return hits, misses + int(c.written.Load()), invalidations, entries
}

// Reset drops every result and the record of what was asked, keeping the
// counters, and returns the number of results dropped. It is about memory:
// results are whole relations, and with the record gone an answer asked
// once after the reset streams and is not stored. The plan facts stay —
// they are small, bounded in number and exactly as valid as before.
func (c *SubexprCache) Reset() int {
	if c.asked != nil {
		c.asked.drop()
	}
	return c.results.Drop()
}
