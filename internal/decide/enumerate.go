package decide

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/relation"
	"relquery/internal/tableau"
)

// Enumerate streams the tuples of φ(db), each once, calling yield for each
// until yield returns false or the result is exhausted. Space is the
// query, its projections and their tries, never an intermediate join; the
// stream remembers the tuples yielded only when two valuations can share
// one (tableau.Stream) — never for an unprojected query, whose tuples come
// in ascending order. The tuple yielded is reused: yield must Clone what
// it keeps.
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
	bc := budgetCounter{limit: b.MaxTuples, gov: b.Gov}
	err = tb.Stream(db, b.Gov, func(tp relation.Tuple) bool {
		return bc.tick() && yield(tp)
	})
	if err != nil {
		return err
	}
	return bc.err
}

// First returns the first n tuples Enumerate yields, or all of them when
// there are fewer, as a relation over the expression's target scheme.
func First(phi algebra.Expr, db relation.Database, n int, b Budget) (*relation.Relation, error) {
	if n < 0 {
		return nil, fmt.Errorf("decide: negative tuple count %d", n)
	}
	out := relation.NewBuilder(phi.Scheme(), -1)
	err := Enumerate(phi, db, b, func(tp relation.Tuple) bool {
		return out.Len() < n && out.Row(tp) && out.Len() < n
	})
	if err != nil {
		return nil, err
	}
	return out.Relation(), nil
}
