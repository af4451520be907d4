package join

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"relquery/internal/obs"
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

func TestEstimateJoinSizeExactOnKeys(t *testing.T) {
	// Key-foreign-key join: every left tuple matches exactly one right
	// tuple; the estimate is exact under uniformity.
	l := rel(t, "A K", "1 k1", "2 k2", "3 k1")
	r := rel(t, "K B", "k1 x", "k2 y")
	est := EstimateJoinSize(l.Scheme(), Analyze(l), r.Scheme(), Analyze(r))
	got, err := (Hash{}).Join(Exec{}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-float64(got.Len())) > 0.01 {
		t.Errorf("estimate %.2f, actual %d", est, got.Len())
	}
	// Cross product estimate: exact.
	dl := rel(t, "A", "1", "2")
	dr := rel(t, "B", "x", "y", "z")
	est = EstimateJoinSize(dl.Scheme(), Analyze(dl), dr.Scheme(), Analyze(dr))
	if est != 6 {
		t.Errorf("cross estimate = %.2f, want 6", est)
	}
}

func TestPlanEstimatedMatchesGreedy(t *testing.T) {
	chain := []*relation.Relation{
		rel(t, "A B", "1 x", "2 y"),
		rel(t, "B C", "x p", "y q"),
		rel(t, "C D", "p 7", "q 8", "q 9"),
	}
	want, err := Multi(Exec{}, chain, Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Metrics
	got, err := PlanEstimated(Exec{Metrics: &m}, chain, Hash{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("PlanEstimated result differs from greedy")
	}
	if joins := m.Snapshot().Joins; joins != 2 {
		t.Errorf("Joins = %d", joins)
	}
	if _, err := PlanEstimated(Exec{}, nil, Hash{}); err == nil {
		t.Error("empty input accepted")
	}
	one := []*relation.Relation{rel(t, "A", "1")}
	single, err := PlanEstimated(Exec{}, one, Hash{})
	if err != nil || single.Len() != 1 {
		t.Errorf("single input: %v %v", single, err)
	}
}

func TestQuickPlanEstimatedCorrect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rels := []*relation.Relation{
			randomRelation(rng, relation.MustScheme("A", "B"), 8),
			randomRelation(rng, relation.MustScheme("B", "C"), 8),
			randomRelation(rng, relation.MustScheme("C", "D"), 8),
			randomRelation(rng, relation.MustScheme("A", "D"), 8),
		}
		want, err := Multi(Exec{}, rels, Hash{}, Greedy)
		if err != nil {
			return false
		}
		got, err := PlanEstimated(Exec{}, rels, Hash{})
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPlanEstimatedAvoidsSkewTrap(t *testing.T) {
	// The hub workload: size-based greedy sees equal sizes everywhere, but
	// the estimate knows the hub join explodes (1 distinct value) and the
	// selective join doesn't.
	// R1 and R2 meet on a single hub value (their join is N×N); R3 keeps
	// only one C value, so R2 ∗ R3 has one row and the result has N. The
	// size-based greedy planner sees identical size products and walks
	// into the hub; the estimate sees V(B) = 1 vs V(C) = N and starts with
	// the selective pair.
	n := 40
	r1 := relation.New(relation.MustScheme("A", "B"))
	r2 := relation.New(relation.MustScheme("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	cval := func(j int) string {
		return string(rune('c')) + string(rune('0'+j%10)) + string(rune('A'+j/10))
	}
	for j := 0; j < n; j++ {
		r1.MustAdd(relation.TupleOf(string(rune('a'))+string(rune('0'+j%10))+string(rune('A'+j/10)), "hub"))
		r2.MustAdd(relation.TupleOf("hub", cval(j)))
	}
	r3.MustAdd(relation.TupleOf(cval(0), "z"))
	var est, greedy obs.Metrics
	wantRel, err := Multi(Exec{Metrics: &greedy}, []*relation.Relation{r1, r2, r3}, Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	gotRel, err := PlanEstimated(Exec{Metrics: &est}, []*relation.Relation{r1, r2, r3}, Hash{})
	if err != nil {
		t.Fatal(err)
	}
	if !gotRel.Equal(wantRel) {
		t.Fatal("results differ")
	}
	// The estimated plan joins R2*R3 first (selective), never building the
	// N*N hub blowup that a wrong order pays.
	estMax, greedyMax := int(est.Snapshot().MaxIntermediate), int(greedy.Snapshot().MaxIntermediate)
	if estMax > greedyMax {
		t.Errorf("estimated plan worse than greedy: %d > %d", estMax, greedyMax)
	}
	if estMax >= n*n {
		t.Errorf("estimated plan built the hub blowup: %d", estMax)
	}
}
