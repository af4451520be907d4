package relation_test

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/join"
	"relquery/internal/relation"
)

// TestSetSemanticsUnderTotalCollision reruns the relation's set
// operations and the hash-keyed joins with every tuple hashing to 0.
// Nothing may depend on the hash for an answer: each index is then a
// single probe chain, and the results must still equal the reference
// oracle Relation.Join, which matches join keys by their serialized string
// and never by hash.
func TestSetSemanticsUnderTotalCollision(t *testing.T) {
	relation.CollideAllHashes(t)
	if relation.TupleOf("a").Hash() != relation.TupleOf("b", "c").Hash() {
		t.Fatal("the degenerate hash is not in effect")
	}

	rng := rand.New(rand.NewSource(1))
	random := func(scheme relation.Scheme, rows, domain int) *relation.Relation {
		r := relation.New(scheme)
		for i := 0; i < rows; i++ {
			tp := make(relation.Tuple, scheme.Len())
			for c := range tp {
				tp[c] = relation.Value(fmt.Sprint(rng.Intn(domain)))
			}
			r.MustAdd(tp)
		}
		return r
	}
	ab, bc := relation.MustScheme("A", "B"), relation.MustScheme("B", "C")
	l, r := random(ab, 60, 6), random(bc, 60, 6)

	// Add / Contains: 60 draws from a 36-tuple domain must have collapsed.
	if l.Len() > 36 {
		t.Fatalf("Add kept %d tuples from a 36-tuple domain", l.Len())
	}
	members := 0
	for a := 0; a < 6; a++ {
		for b := 0; b < 6; b++ {
			tp := relation.TupleOf(fmt.Sprint(a), fmt.Sprint(b))
			if l.Contains(tp) {
				members++
				if l.MustAdd(tp) {
					t.Errorf("Add re-admitted member %v", tp)
				}
			}
		}
	}
	if members != l.Len() {
		t.Errorf("Contains finds %d of the domain, relation holds %d", members, l.Len())
	}

	// Project: compare with a projection assembled by scan and Equal.
	proj, err := l.Project(relation.MustScheme("B"))
	if err != nil {
		t.Fatal(err)
	}
	var want []relation.Tuple
	l.Each(func(tp relation.Tuple) bool {
		for _, w := range want {
			if w[0] == tp[1] {
				return true
			}
		}
		want = append(want, relation.Tuple{tp[1]})
		return true
	})
	if proj.Len() != len(want) {
		t.Errorf("Project kept %d tuples, want %d", proj.Len(), len(want))
	}
	for _, w := range want {
		if !proj.Contains(w) {
			t.Errorf("Project lost %v", w)
		}
	}

	// Joins: every strategy against the reference.
	ref, err := l.Join(r)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Empty() {
		t.Fatal("reference join is empty; the case proves nothing")
	}
	// A larger pair with 40 join keys: chains of several rows per group.
	bigL, bigR := random(ab, 400, 40), random(bc, 300, 40)
	bigRef, err := bigL.Join(bigR)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []join.Algorithm{join.Hash{}, join.Generic{}, join.Yannakakis{}} {
		got, err := join.Multi(join.Exec{}, join.NewPlan(l, r), alg, join.Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Errorf("%s join differs from the reference: %d vs %d tuples", alg.Name(), got.Len(), ref.Len())
		}
		got, err = join.Multi(join.Exec{}, join.NewPlan(bigL, bigR), alg, join.Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(bigRef) {
			t.Errorf("%s join differs from the reference on the large input: %d vs %d tuples", alg.Name(), got.Len(), bigRef.Len())
		}
	}

	// Semijoin: l ⋉ few is π_AB(l ∗ few), with few too small to cover
	// l's B values, so some tuples of l must go.
	few := random(bc, 3, 6)
	semi, err := join.Semijoin(l, few)
	if err != nil {
		t.Fatal(err)
	}
	fewRef, err := l.Join(few)
	if err != nil {
		t.Fatal(err)
	}
	wantSemi, err := fewRef.Project(ab)
	if err != nil {
		t.Fatal(err)
	}
	if wantSemi.Len() == 0 || wantSemi.Len() == l.Len() {
		t.Fatalf("reference semijoin keeps %d of %d tuples; the case proves nothing", wantSemi.Len(), l.Len())
	}
	if !semi.Equal(wantSemi) {
		t.Errorf("semijoin kept %d tuples, reference %d", semi.Len(), wantSemi.Len())
	}
}
