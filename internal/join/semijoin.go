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
	// The result is a subset of a set: duplicate-free as selected, and
	// its tuples are r's own, shared rather than copied.
	var kept []relation.Tuple
	r.Each(func(t relation.Tuple) bool {
		if err = g.Tick(); err != nil {
			return false
		}
		if table.first(t.HashOf(keyR), t, keyR) >= 0 {
			kept = append(kept, t)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return relation.FromDistinctTuples(r.Scheme(), kept)
}

// ReduceFixpoint runs pairwise semijoin reduction to fixpoint: every
// relation is repeatedly semijoined against every other until nothing
// shrinks. The reduction is sound for any join (a removed tuple joins with
// nothing on some shared scheme, so it cannot contribute to the result)
// but complete only for acyclic joins — deps.FullReduce is the two-sweep
// version with that guarantee. It returns the reduced relations and the
// number of passes performed.
func ReduceFixpoint(rels []*relation.Relation) ([]*relation.Relation, int, error) {
	out := make([]*relation.Relation, len(rels))
	copy(out, rels)
	passes := 0
	for {
		passes++
		changed := false
		for i := range out {
			for j := range out {
				if i == j || out[i].Scheme().Disjoint(out[j].Scheme()) {
					continue
				}
				reduced, err := Semijoin(out[i], out[j])
				if err != nil {
					return nil, passes, err
				}
				if reduced.Len() < out[i].Len() {
					out[i] = reduced
					changed = true
				}
			}
		}
		if !changed {
			return out, passes, nil
		}
	}
}
