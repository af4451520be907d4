package join

import (
	"math"
	"testing"

	"relquery/internal/relation"
)

func TestAnalyze(t *testing.T) {
	r := rel(t, "A B", "1 x", "2 x", "2 y")
	s := Analyze(r)
	if s.Rows != 3 {
		t.Errorf("Rows = %d", s.Rows)
	}
	if s.Distinct["A"] != 2 || s.Distinct["B"] != 2 {
		t.Errorf("Distinct = %v", s.Distinct)
	}
	empty := Analyze(relation.New(relation.MustScheme("A")))
	if empty.Rows != 0 || empty.Distinct["A"] != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

// TestEstimateExactOnKeys pins the System R selectivity model through its
// one caller: a two-input plan's estimated peak is the estimate of that
// single join.
func TestEstimateExactOnKeys(t *testing.T) {
	// Key-foreign-key join: every left tuple matches exactly one right
	// tuple; the estimate is exact under uniformity.
	l := rel(t, "A K", "1 k1", "2 k2", "3 k1")
	r := rel(t, "K B", "k1 x", "k2 y")
	est, _ := NewPlan(l, r).Peaks()
	got, err := (Hash{}).Join(Exec{}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-float64(got.Len())) > 0.01 {
		t.Errorf("estimate %.2f, actual %d", est, got.Len())
	}
	// Cross product estimate: exact.
	est, _ = NewPlan(rel(t, "A", "1", "2"), rel(t, "B", "x", "y", "z")).Peaks()
	if est != 6 {
		t.Errorf("cross estimate = %.2f, want 6", est)
	}
}
