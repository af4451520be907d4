package decide

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// Enumerate streams the tuples of φ(db), each once, calling yield for each
// until yield returns false or the result is exhausted. It is the
// evaluator's answer written into a sink (algebra.Evaluator.EvalUnder)
// under the generic join: a join node's answer comes as the search finds
// it, and a projected node's, which can repeat a tuple or find its tuples
// out of order, is collected first and then replayed. So space is never an
// intermediate join's, and for an unprojected query it is the query's
// whatever the number of tuples. The tuple yielded may be one the stream
// reuses: yield must Clone what it keeps.
//
// This is the library's "lazy result" primitive and the one stream under
// every decider: each Dᵖ, #P and Π₂ᵖ procedure is a stopping rule on it,
// and callers can use it to peek at the first few tuples of a query whose
// full materialization would explode.
func Enumerate(phi algebra.Expr, db relation.Database, b Budget, yield func(relation.Tuple) bool) error {
	s := stream{budgetCounter{limit: b.MaxTuples, gov: b.Gov}, yield}
	if err := engine.EvalUnder(b.Gov, phi, db, &s); err != nil {
		return err
	}
	return s.err
}

// stream is Enumerate's sink: each row is a visited tuple, counted against
// the budget before it is yielded.
type stream struct {
	budgetCounter
	yield func(relation.Tuple) bool
}

func (*stream) Begin(relation.Scheme, int) bool { return true }
func (s *stream) Row(t relation.Tuple) bool     { return s.tick() && s.yield(t) }

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
