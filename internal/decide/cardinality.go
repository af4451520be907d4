package decide

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// The cardinality procedures implement Theorem 2's problems and Theorem
// 3's count. Each is one Enumerate stream stopped by count, whose tuples
// are distinct as they come: space is never an intermediate join's, and
// for an unprojected query it is the query's, whatever the count.

// CardAtLeast decides d ≤ |φ(db)| — NP-complete (guess d distinct tuples;
// here: enumerate until d distinct tuples have been seen).
func CardAtLeast(phi algebra.Expr, db relation.Database, d int, b Budget) (bool, error) {
	if d <= 0 {
		return true, nil
	}
	n, err := count(phi, db, d, b)
	return err == nil && n >= d, err
}

// CardAtMost decides |φ(db)| ≤ d — co-NP-complete (refute by finding d+1
// distinct tuples).
func CardAtMost(phi algebra.Expr, db relation.Database, d int, b Budget) (bool, error) {
	if d < 0 {
		return false, fmt.Errorf("decide: negative cardinality bound %d", d)
	}
	n, err := count(phi, db, d+1, b)
	return err == nil && n <= d, err
}

// CardBetween decides d1 ≤ |φ(db)| ≤ d2 — Dᵖ-complete (Theorem 2), the
// conjunction of an NP and a co-NP question, answered by one stream
// stopped at d2+1 distinct tuples.
func CardBetween(phi algebra.Expr, db relation.Database, d1, d2 int, b Budget) (bool, error) {
	if d1 > d2 {
		return false, fmt.Errorf("decide: empty window [%d, %d]", d1, d2)
	}
	if d2 < 0 {
		return false, fmt.Errorf("decide: negative cardinality bound %d", d2)
	}
	n, err := count(phi, db, d2+1, b)
	return err == nil && d1 <= n && n <= d2, err
}

// Count computes |φ(db)| exactly — the #P-hard enumeration problem of
// Theorem 3 — by streaming every tuple.
func Count(phi algebra.Expr, db relation.Database, b Budget) (int, error) {
	return count(phi, db, 0, b)
}

// count streams φ(db) and returns how many tuples it saw,
// stopping once it has seen stop of them (0 = never stop early).
func count(phi algebra.Expr, db relation.Database, stop int, b Budget) (int, error) {
	n := 0
	err := Enumerate(phi, db, b, func(relation.Tuple) bool {
		n++
		return n != stop
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}
