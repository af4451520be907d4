package algebra

import (
	"fmt"
	"sync"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// storedPlan is a plan over the facts shared holds for the chain
// workload's join node, for asking what earlier evaluations left there.
func storedPlan(t *testing.T, shared *SubexprCache, e Expr, db relation.Database) *join.Plan {
	t.Helper()
	facts, ok, _ := shared.facts.Do(nil, appendKey(nil, e.String(), e.Operands(), db), func() (*join.Facts, error) { return new(join.Facts), nil })
	if !ok {
		t.Fatal("the shared cache holds no facts for the node")
	}
	p := facts.Plan(chainPlan(t).Inputs...)
	return &p
}

// TestStoredFactsStayLazy: through a shared cache a node still computes
// only what its strategy reads, a later request completes the entry
// instead of recomputing it, and a request that finds everything plans
// nothing.
func TestStoredFactsStayLazy(t *testing.T) {
	e, db := chainWorkload(t)
	shared := NewSubexprCache()
	limits := governor.Limits{MaxIntermediateRows: 1 << 30}
	eval := func(ev Evaluator) obs.PlanningSnapshot {
		t.Helper()
		shared.Reset() // the result would answer the request; the facts stay
		col := ev.Collector
		ev.SharedCache, ev.Order = shared, join.Greedy
		if _, err := ev.Eval(e, db); err != nil {
			t.Fatal(err)
		}
		return col.M().Planning()
	}

	// Untraced, un-admitted forced hash: enters the node, computes nothing.
	eval(Evaluator{Algorithm: join.Hash{}, Limits: limits})
	p := storedPlan(t, shared, e, db)
	if memoized(func() { p.JoinTree() }) || memoized(func() { p.AGMBound() }) || memoized(func() { p.Peaks() }) {
		t.Error("an untraced, un-admitted hash node computed a planning fact")
	}

	// Untraced forced Yannakakis on a fresh store: the tree only.
	shared = NewSubexprCache()
	eval(Evaluator{Algorithm: join.Yannakakis{}, Limits: limits})
	p = storedPlan(t, shared, e, db)
	tree, _ := p.JoinTree()
	if !memoized(func() { p.JoinTree() }) {
		t.Fatal("the Yannakakis node did not leave its join tree in the store")
	}

	// Traced, gated auto as relqueryd runs it: GYO decides — found, not
	// run — and the span wants the bound; the simulation's scan of every
	// input row (Analyze) must still not happen.
	got := eval(Evaluator{AutoWCOJ: true, AutoYannakakis: true, Admit: true, Limits: limits, Collector: &obs.Collector{}})
	if got.FactsHits != 1 || got.FactsMisses != 0 || got.CoverLPSolves != 1 {
		t.Errorf("auto over a tree-only entry: %+v, want one hit and the n-ary LP", got)
	}
	if again, _ := storedPlan(t, shared, e, db).JoinTree(); again != tree {
		t.Error("the auto node computed the join tree again")
	}

	// Traced, gated forced hash: the per-node gate reads the peaks — the
	// simulation runs now (its one subset LP for three inputs), so the
	// auto node had not run it — and finds tree and cover.
	got = eval(Evaluator{Algorithm: join.Hash{}, Admit: true, Limits: limits, Collector: &obs.Collector{}})
	if got.FactsHits != 1 || got.CoverLPSolves != 1 {
		t.Errorf("hash over a tree-and-cover entry: %+v, want one hit and the one subset LP", got)
	}
	got = eval(Evaluator{Algorithm: join.Hash{}, Admit: true, Limits: limits, Collector: &obs.Collector{}})
	if got.FactsHits != 1 || got.CoverLPSolves != 0 {
		t.Errorf("hash over a complete entry: %+v, want one hit and no LP", got)
	}
}

// TestConcurrentColdNodePlansOnce: eight goroutines evaluate the same cold
// cyclic node through one shared cache. One of them enters the node's
// facts and each fact is computed once, whoever gets there first; -race
// proves the published tree and cover are never written again.
func TestConcurrentColdNodePlansOnce(t *testing.T) {
	db := relation.NewDatabase()
	tri := relation.New(relation.MustScheme("A", "B", "C"))
	for i := 0; i < 40; i++ {
		tri.MustAdd(relation.TupleOf(fmt.Sprint(i%5), fmt.Sprint(i%8), fmt.Sprint(i)))
	}
	db.Put("T", tri)
	e, err := ParseForDatabase("pi[A B](T) * pi[B C](T) * pi[A C](T)", db)
	if err != nil {
		t.Fatal(err)
	}
	alone := &obs.Collector{}
	want, err := (&Evaluator{AutoWCOJ: true, AutoYannakakis: true, Collector: alone, SharedCache: NewSubexprCache()}).Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}

	shared := NewSubexprCache()
	const goroutines = 8
	cols := make([]*obs.Collector, goroutines)
	var wg sync.WaitGroup
	for g := range cols {
		cols[g] = &obs.Collector{}
		wg.Add(1)
		go func(col *obs.Collector) {
			defer wg.Done()
			ev := Evaluator{AutoWCOJ: true, AutoYannakakis: true, Collector: col, SharedCache: shared}
			got, err := ev.Eval(e, db)
			if err != nil || !got.Equal(want) {
				t.Errorf("concurrent evaluation: %v, equal = %v", err, err == nil && got.Equal(want))
			}
		}(cols[g])
	}
	wg.Wait()
	var total obs.PlanningSnapshot
	for _, col := range cols {
		p := col.M().Planning()
		total.FactsHits += p.FactsHits
		total.FactsMisses += p.FactsMisses
		total.CoverLPSolves += p.CoverLPSolves
	}
	// A goroutine that finds the answer in the shared cache plans nothing.
	if total.FactsMisses != 1 || total.FactsHits > goroutines-1 {
		t.Errorf("facts entered %d times and found %d times by %d goroutines", total.FactsMisses, total.FactsHits, goroutines)
	}
	if one := alone.M().Planning().CoverLPSolves; total.CoverLPSolves != one || one == 0 {
		t.Errorf("%d goroutines solved %d LPs between them, one evaluation alone solves %d", goroutines, total.CoverLPSolves, one)
	}
}

// TestFactsStoreIsBounded: a stream of distinct nodes never holds more
// than factsMax entries, and the results Reset drops are not the facts.
func TestFactsStoreIsBounded(t *testing.T) {
	shared := NewSubexprCache()
	inputs := chainPlan(t).Inputs
	resident := func() int {
		_, _, _, entries, _ := shared.facts.Counters()
		return entries
	}
	for i := 0; i < factsMax+factsMax/2; i++ {
		var p join.Plan
		if hit := shared.plan(&p, fmt.Appendf(nil, "distinct-%d", i), nil, inputs); hit {
			t.Fatalf("key %d was never entered, yet hit", i)
		}
		if resident() > factsMax {
			t.Fatalf("%d resident facts after %d distinct nodes, cap %d", resident(), i+1, factsMax)
		}
	}
	if resident() != factsMax/2 {
		t.Errorf("%d resident facts, want the %d entered since the store was last dropped", resident(), factsMax/2)
	}
	if shared.Reset(); resident() != factsMax/2 {
		t.Error("Reset dropped plan facts")
	}
}
