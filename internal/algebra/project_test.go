package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// The rules a projection-pushdown rewrite used to apply — cascade,
// pushdown, no-op projections, duplicate join arguments — hold in the
// evaluator by construction: a projection over a join is one projected
// join node (projectedJoin). These tests pin each rule on the evaluator.

func optSchemes() map[string]relation.Scheme {
	return map[string]relation.Scheme{
		"T": relation.MustScheme("A", "B", "C", "D"),
		"U": relation.MustScheme("C", "E"),
	}
}

func mustParse(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(src, optSchemes())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// optDB is a database for optSchemes: T has 8 rows over 2 (A, C) pairs
// and U 3 rows, so narrowing T to its (A, C) columns is visible in the
// join node's input cardinalities.
func optDB(t *testing.T) relation.Database {
	db := relation.NewDatabase()
	db.Put("T", mkrel(t, "A B C D", "1 b1 c1 d1", "1 b2 c1 d1", "1 b1 c1 d2", "1 b2 c1 d2",
		"2 b1 c2 d1", "2 b2 c2 d1", "2 b1 c2 d2", "2 b2 c2 d2"))
	db.Put("U", mkrel(t, "C E", "c1 e1", "c1 e2", "c2 e1"))
	return db
}

// evalEvery evaluates e under every strategy with a shared cache and
// checks each answer against the Relation.Join/Project fold.
func evalEvery(t *testing.T, e Expr, db relation.Database) {
	t.Helper()
	want := codec(t, fold(t, e, db))
	for _, strategy := range join.StrategyNames() {
		ev := Evaluator{SharedCache: NewSubexprCache()}
		if err := ev.SetStrategy(strategy); err != nil {
			t.Fatal(err)
		}
		got, err := ev.Eval(e, db)
		if err != nil {
			t.Fatalf("%s under %s: %v", e, strategy, err)
		}
		if !got.Scheme().Equal(e.Scheme()) {
			t.Errorf("%s under %s: target %v, want %v", e, strategy, got.Scheme(), e.Scheme())
		}
		if got := codec(t, align(t, got, e.Scheme())); got != want {
			t.Errorf("%s under %s:\n%s\nthe fold:\n%s", e, strategy, got, want)
		}
	}
}

// TestOptimizeCascade: π_A(π_AB(π_ABC(T))) is π_A(T), a lookup of T's
// projection fact: no cache entry, and one span below the projection's,
// the scan.
func TestOptimizeCascade(t *testing.T) {
	db := optDB(t)
	e := mustParse(t, "pi[A](pi[A B](pi[A B C](T)))")
	col := &obs.Collector{}
	ev := Evaluator{SharedCache: NewSubexprCache(), Collector: col}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	if _, misses, _, entries := ev.SharedCache.Counters(); misses != 0 || entries != 0 {
		t.Errorf("nested projections of T made %d cache entries", entries)
	}
	if root := col.Trace().Root(); len(root.Children) != 1 || root.Children[0].Op != obs.OpScan {
		t.Errorf("nested projections did not collapse onto the scan: %+v", root.Children)
	}
	evalEvery(t, e, db)
}

// TestOptimizeNoOpProjection: a projection onto its input's whole scheme
// answers the input's rows, for an operand and for a join.
func TestOptimizeNoOpProjection(t *testing.T) {
	db := optDB(t)
	for _, src := range []string{"pi[A B C D](T)", "pi[A B C D E](T * U)", "pi[E D C B A](T * U)"} {
		evalEvery(t, mustParse(t, src), db)
	}
}

// TestOptimizeJoinDeduplication: a join argument repeated, or an operand
// joined with itself, changes nothing; every attribute of a repeated
// argument is shared, so none is narrowed away.
func TestOptimizeJoinDeduplication(t *testing.T) {
	db := optDB(t)
	for _, src := range []string{"pi[A B](T) * pi[A B](T)", "pi[A](T * T)", "pi[A E](T * U * T * U)"} {
		evalEvery(t, mustParse(t, src), db)
	}
}

// TestOptimizePushdown: under π_AE, T ∗ U joins T narrowed to A and its
// join key C — 2 rows where T has 8 — and U whole.
func TestOptimizePushdown(t *testing.T) {
	db := optDB(t)
	e := mustParse(t, "pi[A E](T * U)")
	col := &obs.Collector{}
	ev := Evaluator{Collector: col}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	j := col.Trace().Root().Children[0]
	if j.Op != obs.OpJoin || len(j.InputRows) != 2 || j.InputRows[0] != 2 || j.InputRows[1] != 3 {
		t.Errorf("join node %s over inputs %v, want join over [2 3]", j.Op, j.InputRows)
	}
	exprs := e.(*Project).Of().(*Join).Args()
	for i, want := range []relation.Scheme{relation.MustScheme("A", "C"), relation.MustScheme("C", "E")} {
		r, _ := db.Get(exprs[i].String())
		got, err := ev.narrow(r, true, e.Scheme(), exprs, nil)
		if err != nil || !got.Scheme().SameOrder(want) {
			t.Errorf("argument %s narrowed to %v, %v; want %v", exprs[i], got.Scheme(), err, want)
		}
	}
	evalEvery(t, e, db)
}

// TestOptimizePushdownStable: the projected join node is planned once,
// under the projection's key, and is that key's only entry: the second
// evaluation is a hit and plans nothing.
func TestOptimizePushdownStable(t *testing.T) {
	db := optDB(t)
	e := mustParse(t, "pi[A E](T * U)")
	shared := NewSubexprCache()
	for i := 0; i < 2; i++ {
		col := &obs.Collector{}
		ev := Evaluator{SharedCache: shared, Collector: col}
		if _, err := ev.Eval(e, db); err != nil {
			t.Fatal(err)
		}
		if hits, misses, _, entries := shared.Counters(); hits != i || misses != 1 || entries != 1 {
			t.Errorf("evaluation %d: %d hits, %d misses, %d entries; want %d, 1, 1", i+1, hits, misses, entries, i)
		}
		if p := col.M().Planning(); p.FactsMisses != int64(1-i) {
			t.Errorf("evaluation %d planned %d nodes from nothing, want %d", i+1, p.FactsMisses, 1-i)
		}
	}
}

// TestOptimizeTargetSchemeSetPreserved: every strategy answers over the
// expression's target scheme.
func TestOptimizeTargetSchemeSetPreserved(t *testing.T) {
	db := optDB(t)
	for _, src := range []string{"pi[A E](T * U)", "pi[B](pi[A B](T))", "T * T * U", "pi[A B C D](T) * U", "pi[](T * U)"} {
		evalEvery(t, mustParse(t, src), db)
	}
}

// TestQuickOptimizePreservesSemantics: on random databases every strategy
// answers each query as the Relation.Join/Project fold does.
func TestQuickOptimizePreservesSemantics(t *testing.T) {
	srcs := []string{
		"pi[A E](T * U)",
		"pi[A](pi[A B](pi[A B C](T)))",
		"pi[A B](T) * pi[B C](T) * pi[A B](T)",
		"pi[A D](pi[A B](T) * pi[B C](T) * pi[C D](T))",
		"pi[E](T * U)",
		"T * U",
		"pi[A C E](pi[A B C D](T) * U * pi[C](U))",
		"pi[A](pi[A C](T * U) * pi[C D](T))",
	}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := mustParse(t, srcs[int(pick)%len(srcs)])
		db := relation.NewDatabase()
		alphabet := []relation.Value{"0", "1", "e"}
		for name, scheme := range optSchemes() {
			r := relation.New(scheme)
			for i, n := 0, rng.Intn(10); i < n; i++ {
				tp := make(relation.Tuple, scheme.Len())
				for j := range tp {
					tp[j] = alphabet[rng.Intn(3)]
				}
				r.MustAdd(tp)
			}
			db.Put(name, r)
		}
		evalEvery(t, e, db)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestOptimizeShrinksGadgetIntermediates: under π_A, T ∗ U joins T
// narrowed to (A, C) and U to its join key C, so the join node's peak is
// 2 rows where the full join holds 12, and the answer is the same.
func TestOptimizeShrinksGadgetIntermediates(t *testing.T) {
	db := optDB(t)
	e := mustParse(t, "pi[A](T * U)")
	full, err := Eval(e.(*Project).Of(), db)
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	ev := Evaluator{Collector: col}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	j := col.Trace().Root().Children[0]
	if full.Len() != 12 || j.MaxIntermediate != 2 || j.InputRows[0] != 2 || j.InputRows[1] != 2 {
		t.Errorf("the join node's peak is %d over inputs %v, the full join %d rows; want 2 over [2 2], and 12",
			j.MaxIntermediate, j.InputRows, full.Len())
	}
	evalEvery(t, e, db)
}
