package algebra

import (
	"errors"
	"strings"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

func mkrel(t *testing.T, scheme string, rows ...string) *relation.Relation {
	t.Helper()
	s, err := relation.SchemeOf(scheme)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(s)
	for _, row := range rows {
		if _, err := r.Add(relation.TupleOf(strings.Fields(row)...)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestEvalOperand(t *testing.T) {
	r := mkrel(t, "A B", "1 2")
	db := relation.Single("T", r)
	e := MustOperand("T", r.Scheme())
	got, err := Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Errorf("Eval(T) = %v", got.Sorted())
	}
	// Missing operand.
	if _, err := Eval(MustOperand("U", r.Scheme()), db); err == nil {
		t.Error("missing operand evaluated")
	}
	// Scheme mismatch.
	bad := MustOperand("T", relation.MustScheme("A", "Z"))
	if _, err := Eval(bad, db); err == nil {
		t.Error("mismatched operand scheme evaluated")
	}
}

func TestEvalProjectJoin(t *testing.T) {
	r := mkrel(t, "A B C",
		"1 x p",
		"2 x q",
		"2 y q",
	)
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	// pi[A B](T) * pi[B C](T)
	e := MustJoin(
		MustProject(relation.MustScheme("A", "B"), op),
		MustProject(relation.MustScheme("B", "C"), op),
	)
	got, err := Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	want := mkrel(t, "A B C",
		"1 x p", "1 x q",
		"2 x p", "2 x q",
		"2 y q",
	)
	if !got.Equal(want) {
		t.Errorf("Eval = %v, want %v", got.Sorted(), want.Sorted())
	}
	// The expression is "lossy at recombination": the original relation is
	// always a subset of the project-join of its projections.
	sub, err := r.SubsetOf(got)
	if err != nil || !sub {
		t.Errorf("R ⊆ π(R)*π(R) violated: %v %v", sub, err)
	}
}

func TestEvalAllAlgorithmsAndOrders(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q", "2 y q", "3 z r")
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := MustJoin(
		MustProject(relation.MustScheme("A", "B"), op),
		MustProject(relation.MustScheme("B", "C"), op),
		MustProject(relation.MustScheme("A", "C"), op),
	)
	ref, err := Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, algName := range join.StrategyNames() {
		for _, order := range []join.Order{join.Sequential, join.Greedy} {
			ev := Evaluator{Order: order}
			if err := ev.SetStrategy(algName); err != nil {
				t.Fatal(err)
			}
			got, err := ev.Eval(e, db)
			if err != nil {
				t.Fatalf("%s/%v: %v", algName, order, err)
			}
			if !got.Equal(ref) {
				t.Errorf("%s/%v disagrees with default", algName, order)
			}
		}
	}
	var ev Evaluator
	if err := ev.SetStrategy("nestedloop"); err == nil {
		t.Error("SetStrategy accepted a name outside join.StrategyNames()")
	}
}

// TestZeroEvaluatorJoinsSequentially: the zero Evaluator joins in
// join.Sequential order, Order's zero value, not greedily. On a star whose
// satellites come first the two orders count different joins — the
// sequential plan's first step is the satellites' cross product — and the
// zero Evaluator counts the sequential plan's.
func TestZeroEvaluatorJoinsSequentially(t *testing.T) {
	db := relation.NewDatabase()
	var ops []Expr
	var rels []*relation.Relation
	for _, leg := range []struct {
		name string
		r    *relation.Relation
	}{
		{"SA", mkrel(t, "A", "1", "2", "3")},
		{"SB", mkrel(t, "B", "1", "2", "3")},
		{"C", mkrel(t, "A B", "1 1", "2 2")},
	} {
		db.Put(leg.name, leg.r)
		ops, rels = append(ops, MustOperand(leg.name, leg.r.Scheme())), append(rels, leg.r)
	}
	want := map[join.Order]obs.MetricsSnapshot{}
	for _, order := range []join.Order{join.Sequential, join.Greedy} {
		var m obs.Metrics
		if _, err := join.Multi(join.Exec{Metrics: &m}, join.NewPlan(rels...), join.Hash{}, order); err != nil {
			t.Fatal(err)
		}
		want[order] = m.Snapshot()
	}
	if want[join.Sequential] == want[join.Greedy] {
		t.Fatalf("both orders count %v: the case proves nothing", want[join.Greedy])
	}
	col := &obs.Collector{}
	ev := Evaluator{Collector: col}
	if _, err := ev.Eval(MustJoin(ops...), db); err != nil {
		t.Fatal(err)
	}
	if got := col.Metrics.Snapshot(); got != want[join.Sequential] {
		t.Errorf("the zero Evaluator counted %v\nthe sequential plan %v", got, want[join.Sequential])
	}
}

func TestEvalStats(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q")
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := MustProject(relation.MustScheme("A"),
		MustJoin(
			MustProject(relation.MustScheme("A", "B"), op),
			MustProject(relation.MustScheme("B", "C"), op),
		))
	col := &obs.Collector{}
	ev := Evaluator{Collector: col}
	got, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("result = %v", got.Sorted())
	}
	snap := col.Metrics.Snapshot()
	if snap.Joins != 1 {
		t.Errorf("Joins = %d", snap.Joins)
	}
	// The full join has 4 tuples (both A's match both C's via B=x), but
	// under pi[A] the right leg is narrowed to its join key B, one row, so
	// the projected join node joins 2.
	if snap.MaxIntermediate != 2 {
		t.Errorf("MaxIntermediate = %d, want 2", snap.MaxIntermediate)
	}
}

func TestEvalBudget(t *testing.T) {
	// Cross product of two 4-tuple relations = 16 tuples > budget 10.
	db := relation.NewDatabase()
	db.Put("L", mkrel(t, "A", "1", "2", "3", "4"))
	db.Put("R", mkrel(t, "B", "1", "2", "3", "4"))
	e := MustJoin(
		MustOperand("L", relation.MustScheme("A")),
		MustOperand("R", relation.MustScheme("B")),
	)
	ev := Evaluator{Limits: governor.Limits{MaxIntermediateRows: 10}}
	_, err := ev.Eval(e, db)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
	ev = Evaluator{Limits: governor.Limits{MaxIntermediateRows: 16}}
	if _, err := ev.Eval(e, db); err != nil {
		t.Errorf("budget 16 failed: %v", err)
	}
}

func TestEvalBudgetOnProjection(t *testing.T) {
	db := relation.Single("T", mkrel(t, "A B", "1 1", "2 2", "3 3"))
	e := MustProject(relation.MustScheme("A"), MustOperand("T", relation.MustScheme("A", "B")))
	ev := Evaluator{Limits: governor.Limits{MaxIntermediateRows: 2}}
	if _, err := ev.Eval(e, db); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestEvalSingle(t *testing.T) {
	r := mkrel(t, "A B", "1 2")
	e := MustProject(relation.MustScheme("B"), MustOperand("R", r.Scheme()))
	got, err := EvalSingle(e, "R", r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(mkrel(t, "B", "2")) {
		t.Errorf("EvalSingle = %v", got.Sorted())
	}
}

func TestEvalMultiRelationDatabase(t *testing.T) {
	db := relation.NewDatabase()
	db.Put("R", mkrel(t, "A B", "1 x", "2 y"))
	db.Put("S", mkrel(t, "B C", "x p", "y q"))
	e := MustJoin(
		MustOperand("R", relation.MustScheme("A", "B")),
		MustOperand("S", relation.MustScheme("B", "C")),
	)
	got, err := Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(mkrel(t, "A B C", "1 x p", "2 y q")) {
		t.Errorf("Eval = %v", got.Sorted())
	}
}

func TestEvalCacheSharesSubexpressions(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q", "2 y q")
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	inner := MustJoin(
		MustProject(relation.MustScheme("A", "B"), op),
		MustProject(relation.MustScheme("B", "C"), op),
	)
	// The same projection of a join, twice: with caching the projected
	// join node runs once.
	e := MustJoin(
		MustProject(relation.MustScheme("A", "C"), inner),
		MustProject(relation.MustScheme("A", "C"), inner),
	)
	plain, cached := &obs.Collector{}, &obs.Collector{}
	evPlain := Evaluator{Collector: plain}
	want, err := evPlain.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	evCached := Evaluator{Collector: cached, Cache: true}
	got, err := evCached.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("cache changed the result")
	}
	if joins := plain.Metrics.Snapshot().Joins; joins != 3 { // inner twice + outer
		t.Errorf("plain Joins = %d, want 3", joins)
	}
	if joins := cached.Metrics.Snapshot().Joins; joins != 2 { // inner once + outer
		t.Errorf("cached Joins = %d, want 2", joins)
	}
}

// TestSharedCacheInvalidation: mutating a referenced relation changes
// its fingerprint, so the cache must miss rather than serve stale data.
func TestSharedCacheInvalidation(t *testing.T) {
	r := mkrel(t, "A B", "1 x", "2 y")
	db := relation.Single("T", r)
	op := MustOperand("T", r.Scheme())
	e := MustJoin(
		MustProject(relation.MustScheme("A"), op),
		MustProject(relation.MustScheme("B"), op),
	)
	cache := NewSubexprCache()
	ev := Evaluator{Cache: true, SharedCache: cache}
	first, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != 4 {
		t.Fatalf("first eval: %d tuples, want 4", first.Len())
	}
	// Mutate T: the cached legs are now stale.
	r.MustAdd(relation.TupleOf("3", "z"))
	second, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if second.Len() != 9 {
		t.Fatalf("after mutation: %d tuples, want 9 (stale cache?)", second.Len())
	}
}
