package decide

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/relation"
	"relquery/internal/tableau"
)

// Enumerate streams the distinct tuples of φ(db) in first-discovery order,
// calling yield for each until yield returns false or the result is
// exhausted. Space grows with the number of distinct tuples seen (for
// deduplication), never with intermediate join sizes.
//
// This is the library's "lazy result" primitive: the Dᵖ and Π₂ᵖ deciders
// are built from exactly this shape of traversal, and callers can use it
// to peek at the first few tuples of a query whose full materialization
// would explode.
func Enumerate(phi algebra.Expr, db relation.Database, b Budget, yield func(relation.Tuple) bool) error {
	tb, err := tableau.New(phi)
	if err != nil {
		return err
	}
	var seen relation.TupleSet
	bc := budgetCounter{limit: b.MaxTuples, gov: b.Gov}
	budgetHit := false
	err = tb.StreamGov(db, b.Gov, func(tp relation.Tuple) bool {
		if !bc.tick() {
			budgetHit = true
			return false
		}
		if _, fresh := seen.Add(tp); !fresh {
			return true
		}
		return yield(tp.Clone())
	})
	if err != nil {
		return err
	}
	if bc.err != nil {
		return bc.err
	}
	if budgetHit {
		return errBudget("enumerating φ(R)", bc.visited)
	}
	return nil
}

// First returns up to n distinct tuples of φ(db), in discovery order, as a
// relation over the expression's target scheme.
func First(phi algebra.Expr, db relation.Database, n int, b Budget) (*relation.Relation, error) {
	if n < 0 {
		return nil, fmt.Errorf("decide: negative tuple count %d", n)
	}
	out := relation.New(phi.Scheme())
	var addErr error
	err := Enumerate(phi, db, b, func(tp relation.Tuple) bool {
		if out.Len() >= n {
			return false
		}
		if _, err := out.Add(tp); err != nil {
			addErr = err
			return false
		}
		return out.Len() < n
	})
	if err != nil {
		return nil, err
	}
	if addErr != nil {
		return nil, addErr
	}
	return out, nil
}

// Materialize computes φ(db) in full through the streaming engine —
// equivalent to tableau.Eval, exposed here so that decide's callers have
// one import for all result-space operations.
func Materialize(phi algebra.Expr, db relation.Database, b Budget) (*relation.Relation, error) {
	out := relation.New(phi.Scheme())
	var addErr error
	err := Enumerate(phi, db, b, func(tp relation.Tuple) bool {
		if _, err := out.Add(tp); err != nil {
			addErr = err
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if addErr != nil {
		return nil, addErr
	}
	return out, nil
}
