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
// deduplication), never with intermediate join sizes. Each yielded tuple
// is freshly allocated, so yield may keep it.
//
// This is the library's "lazy result" primitive and the one stream under
// every decider: each Dᵖ, #P and Π₂ᵖ procedure is a stopping rule on it,
// and callers can use it to peek at the first few tuples of a query whose
// full materialization would explode.
func Enumerate(phi algebra.Expr, db relation.Database, b Budget, yield func(relation.Tuple) bool) error {
	tb, err := tableau.New(phi)
	if err != nil {
		return err
	}
	var seen relation.TupleSet
	bc := budgetCounter{limit: b.MaxTuples, gov: b.Gov}
	err = tb.Stream(db, b.Gov, func(tp relation.Tuple) bool {
		if !bc.tick() {
			return false
		}
		if _, fresh := seen.Add(tp); !fresh {
			return true
		}
		return yield(tp)
	})
	if err != nil {
		return err
	}
	return bc.err
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
		if _, addErr = out.Add(tp); addErr != nil {
			return false
		}
		return out.Len() < n
	})
	if err == nil {
		err = addErr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
