package tableau

import (
	"fmt"
)

// Chandra–Merlin (1977) containment: for project–join expressions φ₁, φ₂
// over the same target scheme, φ₁(db) ⊆ φ₂(db) for EVERY database db iff
// there is a homomorphism from tableau(φ₂) to tableau(φ₁): a variable
// mapping that sends each row of φ₂'s tableau onto a row of φ₁'s tableau
// over the same operand, and φ₂'s summary onto φ₁'s summary.
//
// This "for all databases" containment is NP-complete and decided here by
// backtracking. It is deliberately different from the paper's Theorem 4
// problem — containment with respect to one FIXED database — which is
// Π₂ᵖ-complete and lives in internal/decide. Comparing the two notions on
// the same queries is part of experiment E8's ablations.

// HomomorphismTo reports whether there is a homomorphism from t to u
// (variables of t mapped to variables of u) preserving operands, schemes
// and the summary. By Chandra–Merlin, hom(t → u) means u's query is
// contained in t's query on every database.
func (t *Tableau) HomomorphismTo(u *Tableau) (bool, error) {
	if !t.Target.Equal(u.Target) {
		return false, fmt.Errorf("tableau: targets %v and %v differ", t.Target, u.Target)
	}
	h := make(map[Var]Var)
	// The summary must map position-aligned: for each target attribute,
	// t's summary variable maps to u's.
	for i := 0; i < t.Target.Len(); i++ {
		a := t.Target.Attr(i)
		upos, _ := u.Target.Pos(a)
		tv, uv := t.Summary[i], u.Summary[upos]
		if prev, ok := h[tv]; ok && prev != uv {
			return false, nil
		}
		h[tv] = uv
	}
	return mapRows(t, u, 0, h), nil
}

// mapRows tries to map t.Rows[i:] into u's rows, extending h.
func mapRows(t, u *Tableau, i int, h map[Var]Var) bool {
	if i == len(t.Rows) {
		return true
	}
	row := t.Rows[i]
	for _, candidate := range u.Rows {
		if candidate.Operand != row.Operand || !candidate.Scheme.Equal(row.Scheme) {
			continue
		}
		var assigned []Var
		ok := true
		for k, v := range row.Vars {
			a := row.Scheme.Attr(k)
			cpos, _ := candidate.Scheme.Pos(a)
			target := candidate.Vars[cpos]
			if prev, has := h[v]; has {
				if prev != target {
					ok = false
					break
				}
				continue
			}
			h[v] = target
			assigned = append(assigned, v)
		}
		if ok && mapRows(t, u, i+1, h) {
			return true
		}
		for _, v := range assigned {
			delete(h, v)
		}
	}
	return false
}

// ContainedIn reports whether t's query is contained in u's query on every
// database (t ⊑ u), i.e. whether there is a homomorphism from u to t.
func (t *Tableau) ContainedIn(u *Tableau) (bool, error) {
	return u.HomomorphismTo(t)
}

// EquivalentTo reports whether the two queries agree on every database.
func (t *Tableau) EquivalentTo(u *Tableau) (bool, error) {
	le, err := t.ContainedIn(u)
	if err != nil || !le {
		return false, err
	}
	return u.ContainedIn(t)
}

// Minimize returns an equivalent tableau with a minimal number of rows:
// it repeatedly deletes a row whenever the original tableau still has a
// homomorphism into the reduced one (which, together with the trivial
// reverse containment, yields equivalence). The result is the classic
// minimal tableau, unique up to variable renaming.
func (t *Tableau) Minimize() (*Tableau, error) {
	cur := t.Clone()
	for {
		removed := false
		for i := 0; i < len(cur.Rows); i++ {
			candidate := cur.Clone()
			candidate.Rows = append(candidate.Rows[:i], candidate.Rows[i+1:]...)
			if !summaryCovered(candidate) {
				continue
			}
			// Removing a row only weakens the tableau, so cur ⊑ candidate
			// always (the identity embeds candidate's rows into cur, and
			// hom(candidate → cur) means cur ⊑ candidate). Equivalence
			// therefore needs candidate ⊑ cur, i.e. a homomorphism from
			// cur into candidate.
			ok, err := cur.HomomorphismTo(candidate)
			if err != nil {
				return nil, err
			}
			if ok {
				cur = candidate
				removed = true
				break
			}
		}
		if !removed {
			return cur, nil
		}
	}
}

// summaryCovered reports whether every summary variable still occurs in
// some row (a tableau must witness its summary).
func summaryCovered(t *Tableau) bool {
	present := make(map[Var]bool)
	for _, r := range t.Rows {
		for _, v := range r.Vars {
			present[v] = true
		}
	}
	for _, v := range t.Summary {
		if !present[v] {
			return false
		}
	}
	return true
}
