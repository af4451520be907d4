// Package decide implements the decision procedures whose complexity the
// paper characterizes, as stopping rules on the evaluator's stream of φ(R):
//
//	Member                  t ∈ φ(R)            NP       (Proposition 2)
//	ResultEquals            φ(R) = r            Dᵖ       (Theorem 1)
//	CardAtLeast/AtMost/...  d₁ ≤ |φ(R)| ≤ d₂    Dᵖ       (Theorem 2)
//	Count                   |φ(R)|              #P-hard  (Theorem 3)
//	ContainedFixedRelation  φ₁(R) ⊆ φ₂(R)       Π₂ᵖ      (Theorem 4)
//	ContainedFixedQuery     φ(R₁) ⊆ φ(R₂)       Π₂ᵖ      (Theorem 5)
//
// Each procedure mirrors the membership proof in the paper: an NP "guess"
// becomes the generic join's search for one witness (Member), a co-NP
// refutation a stream hunting for a witness tuple, and a Π₂ᵖ test a ∀-loop
// over one query's output with an NP-oracle call per tuple. Every one
// evaluates with algebra.Evaluator.EvalUnder under the generic join
// (join.Generic) and the budget's governor, into a sink whose Row is the
// stopping rule: Enumerate yields each tuple of φ(R) once, with one witness
// searched per tuple. No join node materializes an intermediate join: space
// is the operands' projections and their tries, the answers of projected
// subexpressions, and, for a projection whose tuples two witnesses can
// share, the answer itself — while time may be exponential, the honest
// trade the paper allows.
package decide

import (
	"context"
	"fmt"
	"slices"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/relation"
)

// Budget caps the work of a decision procedure. The zero Budget is
// unlimited.
type Budget struct {
	// MaxTuples, when positive, bounds how many result tuples a
	// streaming search may visit before giving up with ErrBudget.
	MaxTuples int
	// Gov, when non-nil, is the governor every evaluation of the
	// procedure runs under, ticked per candidate value of the search and
	// on every visited tuple, so the procedures honor its deadline and
	// cancellation (surfacing governor.ErrDeadline / governor.ErrCanceled)
	// just like the materializing engines. Its row and memory budgets
	// bound what the evaluations materialize — the operands' projections
	// and the answers of projected subexpressions — and its output cap
	// the answer of each.
	Gov *governor.Governor
}

// WithContext returns the budget with a governor for ctx attached
// (replacing any present), so callers can bound a streaming decision by
// a deadline in one call: decide.Budget{...}.WithContext(ctx).
func (b Budget) WithContext(ctx context.Context) Budget {
	b.Gov = governor.New(ctx, governor.Limits{})
	return b
}

// ErrBudget is returned (wrapped) when a procedure exceeds its budget.
var ErrBudget = fmt.Errorf("decide: search budget exceeded")

type budgetCounter struct {
	limit   int
	visited int
	gov     *governor.Governor
	err     error // budget or governor violation that stopped the search
}

// tick admits one more visited tuple, refusing once the limit is
// reached or the governor reports a violation; either refusal is latched
// in err. The gate runs before the counter moves, so a refused tuple is
// never counted: the error reports exactly how many tuples were examined,
// and a search that decides on its k-th visit succeeds under
// Budget{MaxTuples: k}.
func (b *budgetCounter) tick() bool {
	if err := b.gov.Tick(); err != nil {
		b.err = err
		return false
	}
	if b.limit > 0 && b.visited >= b.limit {
		b.err = fmt.Errorf("%w: visited %d tuples of φ(R)", ErrBudget, b.visited)
		return false
	}
	b.visited++
	return true
}

// engine is the evaluator every procedure runs: the generic join on every
// join node, which searches φ(R) attribute by attribute and, on a
// projected node, stops at one witness per answer.
var engine = algebra.Evaluator{Algorithm: join.Generic{}}

// Member reports whether the named tuple belongs to φ(db) — the paper's
// Proposition 2, in NP via the search for one witness.
func Member(nt relation.NamedTuple, phi algebra.Expr, db relation.Database) (bool, error) {
	return MemberBudget(nt, phi, db, Budget{})
}

// MemberBudget is Member under a Budget's governor: the search honors
// the deadline and cancellation per candidate value, so a hard instance
// aborts with governor.ErrDeadline/ErrCanceled instead of searching to
// exhaustion.
func MemberBudget(nt relation.NamedTuple, phi algebra.Expr, db relation.Database, b Budget) (bool, error) {
	m, err := newMember(phi, db)
	if err != nil {
		return false, err
	}
	return m.test(nt, b.Gov)
}

// member is the membership query of φ over db, built once for any number
// of tuples: π_X(T ⋈ args(φ)), X = trs(φ), over db and T, a one-tuple
// relation over X under a name none of φ's operands has. T is the join's
// first argument, so the generic join binds X first, to the tuple's
// values, and the projected node stops at its first witness — the paper's
// guessed valuation. Nested projections collapse (π_X(π_Y(e)) = π_X(e)),
// and an argument's attributes that neither X nor another argument reads
// are narrowed away, so the search binds only what a witness needs.
type member struct {
	x     relation.Scheme
	name  string // T's
	join  *algebra.Join
	q     algebra.Expr // π_X(join)
	db    relation.Database
	row   []relation.Value // the tuple in X's column order
	found bool
}

func newMember(phi algebra.Expr, db relation.Database) (*member, error) {
	x, ops := phi.Scheme(), phi.Operands()
	m := &member{x: x, name: "t", db: make(relation.Database, len(ops)+1), row: make([]relation.Value, x.Len())}
	for slices.Contains(ops, m.name) {
		m.name += "'"
	}
	for _, n := range ops {
		if r, ok := db[n]; ok {
			m.db[n] = r
		}
	}
	of := phi
	for p, ok := of.(*algebra.Project); ok; p, ok = of.(*algebra.Project) {
		of = p.Of()
	}
	var err error
	if m.join, err = algebra.NewJoin(algebra.MustOperand(m.name, x), of); err != nil {
		return nil, err
	}
	m.q, err = algebra.NewProject(x, m.join)
	return m, err
}

// test reports whether nt is in φ(db), under gov.
func (m *member) test(nt relation.NamedTuple, gov *governor.Governor) (bool, error) {
	if !nt.Scheme.Equal(m.x) {
		return false, fmt.Errorf("decide: tuple scheme %v does not match target %v", nt.Scheme, m.x)
	}
	for i := range m.row {
		pos, _ := nt.Scheme.Pos(m.x.Attr(i))
		m.row[i] = nt.Vals[pos]
	}
	t := relation.NewBuilder(m.x, 1)
	t.Row(m.row)
	m.db[m.name], m.found = t.SortedRelation(), false
	err := engine.EvalUnder(gov, m.q, m.db, m)
	return m.found, err
}

func (*member) Begin(relation.Scheme, int) bool { return true }

// Row takes the one row the query can answer, and stops the search.
func (m *member) Row(relation.Tuple) bool {
	m.found = true
	return false
}

// Comparison is the outcome of a relation-valued comparison, carrying a
// witness when the comparison fails.
type Comparison struct {
	// Holds reports whether the tested relationship holds.
	Holds bool
	// Witness, when Holds is false, is a tuple demonstrating the failure
	// (e.g. a tuple of φ(R) missing from r). Nil when Holds.
	Witness relation.Tuple
	// WitnessScheme names the witness's columns.
	WitnessScheme relation.Scheme
}

// ResultEquals decides φ(db) = r — the paper's Theorem 1 problem. It
// decomposes exactly as the Dᵖ membership proof does:
//
//	(NP part)    r ⊆ φ(db): for every tuple of r, search a valuation;
//	(co-NP part) φ(db) ⊆ r: stream φ(db)'s tuples hunting for one
//	             outside r, succeeding when the search exhausts.
func ResultEquals(phi algebra.Expr, db relation.Database, r *relation.Relation, b Budget) (Comparison, error) {
	sub, err := ConjecturedSubset(r, phi, db, b)
	if err != nil || !sub.Holds {
		return sub, err
	}
	return ResultSubset(phi, db, r, b)
}

// ConjecturedSubset decides r ⊆ φ(db) (the NP half of Theorem 1; this is
// also Yannakakis' membership problem iterated over r's tuples) as one
// membership query for all of r's tuples: π(r ⋈ args(φ)), projected onto
// r's scheme, is r ∩ φ(db), and the witness is the first tuple of r, in
// r.Each order, that it lacks. The search runs under the budget's
// governor — without that, one hard tuple's exponential witness search
// could never be interrupted.
func ConjecturedSubset(r *relation.Relation, phi algebra.Expr, db relation.Database, b Budget) (Comparison, error) {
	m, err := newMember(phi, db)
	if err != nil {
		return Comparison{}, err
	}
	in := relation.NewBuilder(r.Scheme(), -1)
	if r.Scheme().Equal(m.x) {
		m.db[m.name] = r
		q, err := algebra.NewProject(r.Scheme(), m.join)
		if err == nil {
			err = engine.EvalUnder(b.Gov, q, m.db, in)
		}
		if err != nil {
			return Comparison{}, err
		}
	}
	got := in.Relation()
	return subset(r.Scheme(), m.x, func(yield func(relation.Tuple) bool) error {
		r.Each(yield)
		return nil
	}, func(tp relation.Tuple) (bool, error) {
		return got.Contains(tp), nil
	})
}

// ResultSubset decides φ(db) ⊆ r (the co-NP half of Theorem 1): it
// streams result tuples until one falls outside r.
func ResultSubset(phi algebra.Expr, db relation.Database, r *relation.Relation, b Budget) (Comparison, error) {
	target := phi.Scheme()
	aligned := r
	if r.Scheme().Equal(target) && !r.Scheme().SameOrder(target) {
		var err error
		if aligned, err = r.Project(target); err != nil {
			return Comparison{}, err
		}
	}
	return subset(target, r.Scheme(), func(yield func(relation.Tuple) bool) error {
		return Enumerate(phi, db, b, yield)
	}, func(tp relation.Tuple) (bool, error) {
		return aligned.Contains(tp), nil
	})
}
