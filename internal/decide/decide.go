// Package decide implements the decision procedures whose complexity the
// paper characterizes, as searches for tableau valuations:
//
//	Member                  t ∈ φ(R)            NP       (Proposition 2)
//	ResultEquals            φ(R) = r            Dᵖ       (Theorem 1)
//	CardAtLeast/AtMost/...  d₁ ≤ |φ(R)| ≤ d₂    Dᵖ       (Theorem 2)
//	Count                   |φ(R)|              #P-hard  (Theorem 3)
//	ContainedFixedRelation  φ₁(R) ⊆ φ₂(R)       Π₂ᵖ      (Theorem 4)
//	ContainedFixedQuery     φ(R₁) ⊆ φ(R₂)       Π₂ᵖ      (Theorem 5)
//
// Each procedure mirrors the membership proof in the paper: an NP "guess"
// becomes a search for a valuation stopped at the first one
// (tableau.Member), a co-NP refutation a stream hunting for a witness
// tuple, and a Π₂ᵖ test a ∀-loop over one query's output with an NP-oracle
// call per tuple. Both run the generic join's search over the tableau's
// rows (tableau.Stream), and every procedure that walks φ(R) is a
// stopping rule on one stream, Enumerate, which yields each tuple once,
// with one witness searched per tuple. Nothing materializes an
// intermediate join: space is the operands' projections and their tries —
// and, for a projection whose tuples two valuations can share, the tuples
// seen — while time may be exponential, the honest trade the paper
// allows.
package decide

import (
	"context"
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/relation"
	"relquery/internal/tableau"
)

// Budget caps the work of a decision procedure. The zero Budget is
// unlimited.
type Budget struct {
	// MaxTuples, when positive, bounds how many result tuples a
	// streaming search may visit before giving up with ErrBudget.
	MaxTuples int
	// Gov, when non-nil, is ticked on every visited tuple, so streaming
	// searches honor the resource governor's deadline and cancellation
	// (surfacing governor.ErrDeadline / governor.ErrCanceled) just like
	// the materializing engines. Row and memory budgets do not apply
	// here — streaming never materializes intermediates — so only the
	// clock and the context are consulted.
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

// Member reports whether the named tuple belongs to φ(db) — the paper's
// Proposition 2, in NP via tableau valuation guessing.
func Member(nt relation.NamedTuple, phi algebra.Expr, db relation.Database) (bool, error) {
	return MemberBudget(nt, phi, db, Budget{})
}

// MemberBudget is Member under a Budget's governor: the search honors
// the deadline and cancellation per candidate value, so a hard instance
// aborts with governor.ErrDeadline/ErrCanceled instead of searching to
// exhaustion.
func MemberBudget(nt relation.NamedTuple, phi algebra.Expr, db relation.Database, b Budget) (bool, error) {
	tb, err := tableau.New(phi)
	if err != nil {
		return false, err
	}
	return tb.Member(nt, db, b.Gov)
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
// also Yannakakis' membership problem iterated over r's tuples). Each
// membership search runs under the budget's governor — without that,
// one hard tuple's exponential valuation search could never be
// interrupted.
func ConjecturedSubset(r *relation.Relation, phi algebra.Expr, db relation.Database, b Budget) (Comparison, error) {
	tb, err := tableau.New(phi)
	if err != nil {
		return Comparison{}, err
	}
	return subset(r.Scheme(), phi.Scheme(), func(yield func(relation.Tuple) bool) error {
		r.Each(yield)
		return nil
	}, func(tp relation.Tuple) (bool, error) {
		return tb.Member(relation.NamedTuple{Scheme: r.Scheme(), Vals: tp}, db, b.Gov)
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
