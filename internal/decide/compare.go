package decide

import (
	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// The comparison procedures implement Theorems 4 and 5: containment and
// equivalence with respect to a FIXED database. They realize the Π₂ᵖ
// membership proof (Proposition 3): enumerate the left side's tuples (the
// ∀ player, each tuple once) and, for each, ask the simulated NP
// oracle whether the right side produces it.

// ContainedFixedRelation decides φ₁(db) ⊆ φ₂(db) — Theorem 4's problem.
// Over set-unequal target schemes it holds exactly when φ₁(db) is empty.
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
// membership-testing each of its tuples on the right, through one
// membership query built for all of them.
func containedIn(phi1 algebra.Expr, db1 relation.Database, phi2 algebra.Expr, db2 relation.Database, b Budget) (Comparison, error) {
	m, err := newMember(phi2, db2)
	if err != nil {
		return Comparison{}, err
	}
	s1 := phi1.Scheme()
	return subset(s1, m.x, func(yield func(relation.Tuple) bool) error {
		return Enumerate(phi1, db1, b, yield)
	}, func(tp relation.Tuple) (bool, error) {
		return m.test(relation.NamedTuple{Scheme: s1, Vals: tp}, b.Gov)
	})
}

// subset decides X ⊆ Y: each streams X's tuples (over scheme sx), in
// tests one for membership in Y, and the first tuple not in Y stops the
// stream as the witness. It is the one scheme rule of every comparison:
// when sx and sy are set-unequal no tuple of X can be in Y, so X ⊆ Y
// holds exactly when X is empty, X's first tuple is the witness
// otherwise, and in is not asked.
func subset(sx, sy relation.Scheme, each func(yield func(relation.Tuple) bool) error, in func(relation.Tuple) (bool, error)) (Comparison, error) {
	if !sx.Equal(sy) {
		in = func(relation.Tuple) (bool, error) { return false, nil }
	}
	out := Comparison{Holds: true}
	var inErr error
	err := each(func(tp relation.Tuple) bool {
		ok, err := in(tp)
		if err != nil {
			inErr = err
			return false
		}
		if !ok {
			out = Comparison{Witness: tp.Clone(), WitnessScheme: sx}
		}
		return ok
	})
	if err == nil {
		err = inErr
	}
	if err != nil {
		return Comparison{}, err
	}
	return out, nil
}
