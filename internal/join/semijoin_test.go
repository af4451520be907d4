package join

import (
	"testing"

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
