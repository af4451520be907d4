package join

import (
	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// Semijoin computes r ⋉ s: the tuples of r that join with at least one
// tuple of s on their shared attributes. When the schemes are disjoint,
// the result is r itself if s is nonempty and empty otherwise.
func Semijoin(r, s *relation.Relation) (*relation.Relation, error) {
	return SemijoinWith(r, s, nil)
}

// SemijoinWith is Semijoin under a governor: both scan loops tick g, so
// a semijoin pass over a large relation aborts at tuple granularity on
// cancel, deadline or budget violation. A nil governor is Semijoin.
func SemijoinWith(r, s *relation.Relation, g *governor.Governor) (*relation.Relation, error) {
	fault.Hit(fault.Semijoin)
	shared := r.Scheme().Intersect(s.Scheme())
	keyR, keyS := newKeyCols(r.Scheme(), shared), newKeyCols(s.Scheme(), shared)
	table, err := buildTable(g, s, keyS)
	if err != nil {
		return nil, err
	}
	// Count first: collect the positions of the rows kept, then build
	// headers of exactly that size over them. The result is a subset of a
	// set — duplicate-free as selected — and its tuples are r's own,
	// shared rather than copied.
	var ids []int32
	for i, n := 0, r.Len(); i < n; i++ {
		if err := g.Tick(); err != nil {
			return nil, err
		}
		t := r.Tuple(i)
		if first, _ := table.matches(t.HashOf(keyR), t, keyR); first >= 0 {
			ids = append(ids, int32(i))
		}
	}
	kept := make([]relation.Tuple, len(ids))
	//lint:ungoverned one header copy per row the scan above ticked for
	for k, i := range ids {
		kept[k] = r.Tuple(int(i))
	}
	return relation.FromDistinctTuples(r.Scheme(), kept)
}
