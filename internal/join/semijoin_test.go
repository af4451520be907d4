package join

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relquery/internal/relation"
)

func TestSemijoinBasics(t *testing.T) {
	r := rel(t, "A B", "1 x", "2 y", "3 z")
	s := rel(t, "B C", "x p", "y q")
	out, err := Semijoin(r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(rel(t, "A B", "1 x", "2 y")) {
		t.Errorf("Semijoin = %v", out.Sorted())
	}
	// Disjoint schemes: keep all iff s nonempty.
	out, err = Semijoin(r, rel(t, "D", "1"))
	if err != nil || out.Len() != 3 {
		t.Errorf("disjoint semijoin = %v, %v", out, err)
	}
	out, err = Semijoin(r, relation.New(relation.MustScheme("D")))
	if err != nil || out.Len() != 0 {
		t.Errorf("empty-side semijoin = %v, %v", out, err)
	}
}

func TestReduceFixpointChain(t *testing.T) {
	// A broken chain: the middle relation's values never reach the last.
	r1 := rel(t, "A B", "1 x", "2 y")
	r2 := rel(t, "B C", "x p", "y q")
	r3 := rel(t, "C D") // empty: everything must reduce away
	reduced, passes, err := ReduceFixpoint([]*relation.Relation{r1, r2, r3})
	if err != nil {
		t.Fatal(err)
	}
	if passes < 1 {
		t.Errorf("passes = %d", passes)
	}
	for i, r := range reduced {
		if r.Len() != 0 {
			t.Errorf("relation %d not fully reduced: %d tuples", i, r.Len())
		}
	}
	// Inputs untouched.
	if r1.Len() != 2 || r2.Len() != 2 {
		t.Error("ReduceFixpoint mutated its inputs")
	}
}

func TestQuickReduceFixpointPreservesJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r1 := randomRelation(rng, relation.MustScheme("A", "B"), 10)
		r2 := randomRelation(rng, relation.MustScheme("B", "C"), 10)
		r3 := randomRelation(rng, relation.MustScheme("A", "C"), 10) // cyclic!
		rels := []*relation.Relation{r1, r2, r3}
		want, err := Multi(Exec{}, rels, Hash{}, Greedy)
		if err != nil {
			return false
		}
		reduced, _, err := ReduceFixpoint(rels)
		if err != nil {
			return false
		}
		got, err := Multi(Exec{}, reduced, Hash{}, Greedy)
		if err != nil {
			return false
		}
		// Reduction must never grow a relation and must preserve the join.
		for i := range rels {
			if reduced[i].Len() > rels[i].Len() {
				return false
			}
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}
