package join

import (
	"math"
	"testing"

	"relquery/internal/relation"
)

func TestAnalyze(t *testing.T) {
	set := map[relation.Value]struct{}{"stale": {}}
	distinct := make([]float64, 2)
	Analyze(rel(t, "A B", "1 x", "2 x", "2 y", "3 y"), set, distinct)
	if distinct[0] != 3 || distinct[1] != 2 {
		t.Errorf("distinct = %v, want [3 2]", distinct)
	}
	Analyze(relation.New(relation.MustScheme("A")), set, distinct[:1])
	if distinct[0] != 0 {
		t.Errorf("empty relation: distinct = %v, want 0", distinct[0])
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
