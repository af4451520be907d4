package decide

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/relation"
	"relquery/internal/tableau"
)

// The cardinality procedures implement Theorem 2's problems. They stream
// tableau valuations and deduplicate on the fly, so space is bounded by
// the number of DISTINCT tuples seen (at most d+1 for the bounded
// variants), never by intermediate join sizes.

// CardAtLeast decides d ≤ |φ(db)| — NP-complete (guess d distinct tuples;
// here: enumerate until d distinct tuples have been seen).
func CardAtLeast(phi algebra.Expr, db relation.Database, d int, b Budget) (bool, error) {
	if d <= 0 {
		return true, nil
	}
	distinct, exhausted, err := streamDistinct(phi, db, d, b)
	if err != nil {
		return false, err
	}
	if distinct >= d {
		return true, nil
	}
	// streamDistinct stops early only on reaching d distinct tuples
	// (handled above) or on the budget (an error); fewer than d distinct
	// without exhausting the valuation tree would be a definitive "no"
	// the search cannot justify.
	if !exhausted {
		return false, fmt.Errorf("decide: internal error: bounded search stopped with %d < %d distinct tuples", distinct, d)
	}
	return false, nil
}

// CardAtMost decides |φ(db)| ≤ d — co-NP-complete (refute by finding d+1
// distinct tuples).
func CardAtMost(phi algebra.Expr, db relation.Database, d int, b Budget) (bool, error) {
	if d < 0 {
		return false, fmt.Errorf("decide: negative cardinality bound %d", d)
	}
	distinct, _, err := streamDistinct(phi, db, d+1, b)
	if err != nil {
		return false, err
	}
	return distinct <= d, nil
}

// CardBetween decides d1 ≤ |φ(db)| ≤ d2 — Dᵖ-complete (Theorem 2), the
// conjunction of an NP and a co-NP question.
func CardBetween(phi algebra.Expr, db relation.Database, d1, d2 int, b Budget) (bool, error) {
	if d1 > d2 {
		return false, fmt.Errorf("decide: empty window [%d, %d]", d1, d2)
	}
	atLeast, err := CardAtLeast(phi, db, d1, b)
	if err != nil || !atLeast {
		return false, err
	}
	return CardAtMost(phi, db, d2, b)
}

// Count computes |φ(db)| exactly — the #P-hard enumeration problem of
// Theorem 3 — by streaming all valuations and deduplicating.
func Count(phi algebra.Expr, db relation.Database, b Budget) (int, error) {
	distinct, exhausted, err := streamDistinct(phi, db, 0, b)
	if err != nil {
		return 0, err
	}
	if !exhausted {
		return 0, fmt.Errorf("decide: internal error: unbounded count stopped early")
	}
	return distinct, nil
}

// streamDistinct streams φ(db) counting distinct tuples, stopping once
// `stopAt` distinct tuples have been seen (0 = never stop early).
// exhausted reports whether the full valuation tree was explored.
func streamDistinct(phi algebra.Expr, db relation.Database, stopAt int, b Budget) (distinct int, exhausted bool, err error) {
	tb, err := tableau.New(phi)
	if err != nil {
		return 0, false, err
	}
	var seen relation.TupleSet
	bc := budgetCounter{limit: b.MaxTuples, gov: b.Gov}
	budgetHit := false
	stopped := false
	err = tb.StreamGov(db, b.Gov, func(tp relation.Tuple) bool {
		if !bc.tick() {
			budgetHit = true
			return false
		}
		if _, fresh := seen.Add(tp); fresh && stopAt > 0 && seen.Len() >= stopAt {
			stopped = true
			return false
		}
		return true
	})
	if err != nil {
		return 0, false, err
	}
	if bc.err != nil {
		return 0, false, bc.err
	}
	if budgetHit {
		return 0, false, fmt.Errorf("%w: visited %d tuples counting |φ(R)|", ErrBudget, bc.visited)
	}
	return seen.Len(), !stopped, nil
}
