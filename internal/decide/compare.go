package decide

import (
	"relquery/internal/algebra"
	"relquery/internal/relation"
	"relquery/internal/tableau"
)

// The comparison procedures implement Theorems 4 and 5: containment and
// equivalence with respect to a FIXED database. They realize the Π₂ᵖ
// membership proof (Proposition 3): enumerate the left side's tuples (the
// ∀ player, deduplicated on the fly) and, for each, ask the simulated NP
// oracle whether the right side produces it.

// ContainedFixedRelation decides φ₁(db) ⊆ φ₂(db) — Theorem 4's problem.
// The expressions' target schemes must be set-equal for containment to
// hold (a scheme mismatch yields false with no witness).
func ContainedFixedRelation(phi1, phi2 algebra.Expr, db relation.Database, b Budget) (Comparison, error) {
	return containedIn(phi1, db, phi2, db, b)
}

// EquivalentFixedRelation decides φ₁(db) = φ₂(db) — Theorem 4's
// equivalence form.
func EquivalentFixedRelation(phi1, phi2 algebra.Expr, db relation.Database, b Budget) (Comparison, error) {
	le, err := containedIn(phi1, db, phi2, db, b)
	if err != nil || !le.Holds {
		return le, err
	}
	return containedIn(phi2, db, phi1, db, b)
}

// ContainedFixedQuery decides φ(db1) ⊆ φ(db2) — Theorem 5's problem.
func ContainedFixedQuery(phi algebra.Expr, db1, db2 relation.Database, b Budget) (Comparison, error) {
	return containedIn(phi, db1, phi, db2, b)
}

// EquivalentFixedQuery decides φ(db1) = φ(db2) — Theorem 5's equivalence
// form.
func EquivalentFixedQuery(phi algebra.Expr, db1, db2 relation.Database, b Budget) (Comparison, error) {
	le, err := containedIn(phi, db1, phi, db2, b)
	if err != nil || !le.Holds {
		return le, err
	}
	return containedIn(phi, db2, phi, db1, b)
}

// Compare decides φ₁(db1) ⊆ φ₂(db2) and φ₁(db1) = φ₂(db2) in full
// generality (the paper phrases Theorems 4 and 5 as the two specializations
// Q₁ = Q₂ or db1 = db2 of this problem).
func Compare(phi1 algebra.Expr, db1 relation.Database, phi2 algebra.Expr, db2 relation.Database, b Budget) (contained, equal Comparison, err error) {
	contained, err = containedIn(phi1, db1, phi2, db2, b)
	if err != nil {
		return Comparison{}, Comparison{}, err
	}
	if !contained.Holds {
		return contained, contained, nil
	}
	equal, err = containedIn(phi2, db2, phi1, db1, b)
	if err != nil {
		return Comparison{}, Comparison{}, err
	}
	return contained, equal, nil
}

// containedIn decides φ₁(db1) ⊆ φ₂(db2) by streaming the left side and
// membership-testing each distinct tuple on the right.
func containedIn(phi1 algebra.Expr, db1 relation.Database, phi2 algebra.Expr, db2 relation.Database, b Budget) (Comparison, error) {
	s1, s2 := phi1.Scheme(), phi2.Scheme()
	if !s1.Equal(s2) {
		// Different attribute sets: containment can only hold when the
		// left side is empty.
		empty, err := isEmpty(phi1, db1, b)
		if err != nil {
			return Comparison{}, err
		}
		return Comparison{Holds: empty}, nil
	}
	t1, err := tableau.New(phi1)
	if err != nil {
		return Comparison{}, err
	}
	t2, err := tableau.New(phi2)
	if err != nil {
		return Comparison{}, err
	}
	bc := budgetCounter{limit: b.MaxTuples, gov: b.Gov}
	var seen relation.TupleSet
	out := Comparison{Holds: true}
	var innerErr error
	budgetHit := false
	err = t1.StreamGov(db1, b.Gov, func(tp relation.Tuple) bool {
		if !bc.tick() {
			budgetHit = true
			return false
		}
		if _, fresh := seen.Add(tp); !fresh {
			return true
		}
		nt := relation.NamedTuple{Scheme: s1, Vals: tp}
		ok, err := t2.MemberGov(nt, db2, b.Gov)
		if err != nil {
			innerErr = err
			return false
		}
		if !ok {
			out = Comparison{Holds: false, Witness: tp.Clone(), WitnessScheme: s1}
			return false
		}
		return true
	})
	if err != nil {
		return Comparison{}, err
	}
	if innerErr != nil {
		return Comparison{}, innerErr
	}
	if bc.err != nil {
		return Comparison{}, bc.err
	}
	if budgetHit {
		return Comparison{}, errBudget("deciding containment", bc.visited)
	}
	return out, nil
}

// isEmpty reports whether φ(db) has no tuples.
func isEmpty(phi algebra.Expr, db relation.Database, b Budget) (bool, error) {
	tb, err := tableau.New(phi)
	if err != nil {
		return false, err
	}
	empty := true
	err = tb.StreamGov(db, b.Gov, func(relation.Tuple) bool {
		empty = false
		return false
	})
	if err != nil {
		return false, err
	}
	return empty, nil
}
