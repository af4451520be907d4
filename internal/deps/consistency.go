package deps

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/decide"
	"relquery/internal/join"
	"relquery/internal/relation"
)

// Universal-instance testing, after Honeyman, Ladner and Yannakakis
// (1980), one of the hardness precursors the paper builds on: a database
// {R₁, …, R_k} is (globally) consistent when some universal relation U
// over the union scheme has π_{Xᵢ}(U) = Rᵢ for every i. HLY's key
// observation makes the test effective: if ANY witness exists, the join
// ∗Rᵢ is one, so consistency is exactly
//
//	π_{Xᵢ}(∗R) = Rᵢ  for every i.
//
// Testing this is co-NP-hard in general (it embeds the paper's fixpoint
// problem); for pairwise-consistent ACYCLIC databases it is automatic —
// another face of the acyclicity dividend measured in experiment E8.

// PairwiseConsistent reports whether every pair of relations agrees on its
// shared attributes: π_{Xᵢ∩Xⱼ}(Rᵢ) = π_{Xᵢ∩Xⱼ}(Rⱼ). This is a necessary,
// polynomial-time condition for global consistency, and a sufficient one
// when the scheme hypergraph is acyclic (Beeri–Fagin–Maier–Yannakakis).
func PairwiseConsistent(rels []*relation.Relation) (bool, error) {
	for i := 0; i < len(rels); i++ {
		for j := i + 1; j < len(rels); j++ {
			shared := rels[i].Scheme().Intersect(rels[j].Scheme())
			pi, err := rels[i].Project(shared)
			if err != nil {
				return false, err
			}
			pj, err := rels[j].Project(shared)
			if err != nil {
				return false, err
			}
			if !pi.Equal(pj) {
				return false, nil
			}
		}
	}
	return true, nil
}

// Consistent reports whether the database has a universal instance. The
// relations' schemes may overlap arbitrarily. The check never
// materializes the join ∗Rᵢ and tests π_{Xᵢ}(∗R) = Rᵢ in both directions:
//
//   - Rᵢ ⊆ π_{Xᵢ}(∗R): decide.ConjecturedSubset, a tableau membership
//     search per tuple (NP side);
//   - π_{Xᵢ}(∗R) ⊆ Rᵢ: automatic, since every join tuple projects into
//     the relation it came from.
func Consistent(rels []*relation.Relation) (bool, error) {
	if len(rels) == 0 {
		return true, nil
	}
	db := relation.NewDatabase()
	args := make([]algebra.Expr, len(rels))
	for i, r := range rels {
		name := fmt.Sprintf("R%d", i+1)
		db.Put(name, r)
		op, err := algebra.NewOperand(name, r.Scheme())
		if err != nil {
			return false, err
		}
		args[i] = op
	}
	joinQ, err := algebra.JoinAll(args...)
	if err != nil {
		return false, err
	}
	for _, r := range rels {
		proj, err := algebra.NewProject(r.Scheme(), joinQ)
		if err != nil {
			return false, err
		}
		sub, err := decide.ConjecturedSubset(r, proj, db, decide.Budget{})
		if err != nil || !sub.Holds {
			return false, err
		}
	}
	return true, nil
}

// UniversalInstance returns a universal relation witnessing consistency
// (the join of the relations), or reports inconsistency. Unlike
// Consistent, it materializes the join, so use it only when the join is
// known to be small.
func UniversalInstance(rels []*relation.Relation) (*relation.Relation, bool, error) {
	ok, err := Consistent(rels)
	if err != nil || !ok {
		return nil, false, err
	}
	if len(rels) == 0 {
		return relation.New(relation.MustScheme()), true, nil
	}
	u := rels[0]
	for _, r := range rels[1:] {
		u, err = join.Hash{}.Join(join.Exec{}, u, r)
		if err != nil {
			return nil, false, err
		}
	}
	return u, true, nil
}
