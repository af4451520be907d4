package tableau

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/decide"
	"relquery/internal/relation"
)

// CanonicalDatabase freezes the tableau into a database: every variable
// becomes the constant "v<n>", every row becomes a tuple of its operand's
// relation. The construction realizes the other half of the
// Chandra–Merlin argument: for project–join queries q₁ (this tableau) and
// q₂ over the same target,
//
//	q₁ ⊑ q₂ on all databases  ⇔  frozen(summary₁) ∈ q₂(canonical(q₁)),
//
// because a valuation of q₂'s tableau hitting the frozen summary IS a
// homomorphism into this tableau. FrozenSummary returns the summary's
// image under the freezing.
//
// The canonical database is also the minimal counterexample generator:
// when q₁ ⋢ q₂, the canonical database itself is a database on which
// q₁'s result contains the frozen summary and q₂'s does not.
func (t *Tableau) CanonicalDatabase() (relation.Database, error) {
	db := relation.NewDatabase()
	for _, row := range t.Rows {
		r, ok := db[row.Operand]
		if !ok {
			r = relation.New(row.Scheme)
			db.Put(row.Operand, r)
		}
		if !r.Scheme().SameOrder(row.Scheme) {
			// All rows of one operand share a scheme by construction.
			return nil, fmt.Errorf("tableau: operand %q has rows over differing schemes", row.Operand)
		}
		tuple := make(relation.Tuple, len(row.Vars))
		for i, v := range row.Vars {
			tuple[i] = freeze(v)
		}
		if _, err := r.Add(tuple); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// FrozenSummary returns the summary tuple under the canonical freezing,
// as a named tuple over the target scheme.
func (t *Tableau) FrozenSummary() relation.NamedTuple {
	vals := make(relation.Tuple, len(t.Summary))
	for i, v := range t.Summary {
		vals[i] = freeze(v)
	}
	return relation.NamedTuple{Scheme: t.Target, Vals: vals}
}

func freeze(v Var) relation.Value {
	return relation.Value(fmt.Sprintf("v%d", v))
}

// ContainedInViaCanonical decides t ⊑ q, for q the expression of
// another tableau, by evaluating q over t's canonical database and testing
// for the frozen summary (decide.Member) — an independent implementation
// of ContainedIn used to cross-check the homomorphism search.
func (t *Tableau) ContainedInViaCanonical(q algebra.Expr) (bool, error) {
	if !t.Target.Equal(q.Scheme()) {
		return false, fmt.Errorf("tableau: targets %v and %v differ", t.Target, q.Scheme())
	}
	db, err := t.CanonicalDatabase()
	if err != nil {
		return false, err
	}
	// q may reference operands t never mentions; such a query can only
	// contain t if it has no rows over them, which New guarantees it
	// doesn't — a missing operand therefore means non-containment is
	// undecidable over this canonical db, and in fact the queries are
	// incomparable. Report a descriptive error.
	for _, name := range q.Operands() {
		if _, ok := db[name]; !ok {
			return false, fmt.Errorf("tableau: query mentions operand %q absent from the other query", name)
		}
	}
	return decide.Member(t.FrozenSummary(), q, db)
}
