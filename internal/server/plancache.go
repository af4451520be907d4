package server

import (
	"strings"
	"sync"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// planCacheMax bounds resident plans; past it the cache is dropped
// wholesale. Parsed plans are tiny, the bound only guards against an
// adversarial stream of distinct query texts.
const planCacheMax = 4096

// planCache memoizes parsed (and optionally optimized) expressions
// across requests and tenants. Parsing depends only on the query text
// and the schemes of the relations it references, so the key is the
// text plus the catalog's scheme signature — content changes don't
// invalidate a plan, schema changes do. Expressions are immutable after
// parse, so one *Expr is safely shared by concurrent evaluations; result
// soundness is the shared subexpression cache's job (fingerprint keys),
// not the plan cache's.
type planCache struct {
	mu      sync.Mutex
	entries map[planKey]algebra.Expr
	hits    int64
	misses  int64
}

// planKey is built from strings the request already holds — the catalog
// version's signature and the query text — so a lookup allocates nothing.
type planKey struct {
	sig, src string
	optimize bool
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[planKey]algebra.Expr)}
}

// schemeSignature renders the catalog's relation names and schemes in
// name order — the part of the database a parse depends on. A catalog
// version carries it from the upload that made it.
func schemeSignature(db relation.Database) string {
	var b strings.Builder
	for _, name := range db.Names() {
		b.WriteString(name)
		b.WriteByte('(')
		b.WriteString(db[name].Scheme().String())
		b.WriteString(");")
	}
	return b.String()
}

// get returns the cached plan for (src, cat's schemes, optimize) or
// parses, stores and returns it.
func (c *planCache) get(src string, cat *catalog, optimize bool) (algebra.Expr, error) {
	key := planKey{sig: cat.sig, src: src, optimize: optimize}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.mu.Unlock()
		return e, nil
	}
	c.misses++
	c.mu.Unlock()
	e, err := algebra.ParseForDatabase(src, cat.db)
	if err != nil {
		return nil, err
	}
	if optimize {
		if e, err = algebra.Optimize(e); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	if len(c.entries) >= planCacheMax {
		c.entries = make(map[planKey]algebra.Expr)
	}
	c.entries[key] = e
	c.mu.Unlock()
	return e, nil
}

// counters reports lifetime hits, misses and resident plans.
func (c *planCache) counters() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
