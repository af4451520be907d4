package join

import (
	"context"
	"errors"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

func TestYannakakisChainWithDanglingTuples(t *testing.T) {
	// A chain with dangling tuples on both ends: the full reducer must
	// delete them before any join materializes a combination.
	r1 := rel(t, "A B", "1 x", "9 dead")
	r2 := rel(t, "B C", "x p", "dead2 q")
	r3 := rel(t, "C D", "p 7", "q 8")
	m, sp := &obs.Metrics{}, &obs.Span{}
	out, err := Yannakakis{}.JoinAll(Exec{Metrics: m, Span: sp}, NewPlan(r1, r2, r3))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(rel(t, "A B C D", "1 x p 7")) {
		t.Errorf("join = %v", out.Sorted())
	}
	if sp.Structure != obs.StructureAcyclic {
		t.Errorf("chain recorded structure=%q", sp.Structure)
	}
	if sp.Semijoins != 4 { // 2·(edges−1)
		t.Errorf("semijoins = %d, want 4", sp.Semijoins)
	}
	if sp.ReducedRows != 3 {
		t.Errorf("reduced rows = %d, want 3 of 6", sp.ReducedRows)
	}
	if sp.MaxIntermediate != 1 { // no semijoin result or tree join outgrows the 1-row output
		t.Errorf("span peak = %d, want 1", sp.MaxIntermediate)
	}
	snap := m.Snapshot()
	if snap.YannakakisJoins != 1 || snap.Semijoins != 4 {
		t.Errorf("metrics: yannakakis=%d semijoins=%d", snap.YannakakisJoins, snap.Semijoins)
	}
	// Inputs untouched.
	if r1.Len() != 2 || r2.Len() != 2 || r3.Len() != 2 {
		t.Error("JoinAll mutated its inputs")
	}
}

func TestYannakakisCyclicFallback(t *testing.T) {
	r1 := rel(t, "A B", "1 2", "2 3")
	r2 := rel(t, "B C", "2 3", "3 1")
	r3 := rel(t, "A C", "1 3", "2 1")
	want, err := Multi(Exec{}, NewPlan(r1, r2, r3), Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	m, sp := &obs.Metrics{}, &obs.Span{}
	out, err := Yannakakis{}.JoinAll(Exec{Metrics: m, Span: sp}, NewPlan(r1, r2, r3))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Structure != obs.StructureCyclic {
		t.Errorf("triangle recorded structure=%q", sp.Structure)
	}
	// The fallback is a binary plan of pairwise-reduced joins: two joins,
	// each preceded by a semijoin each way, and no full-reducer
	// annotation on the span.
	if snap := m.Snapshot(); snap.Joins != 2 || snap.Semijoins != 4 || snap.YannakakisJoins != 2 {
		t.Errorf("fallback metrics: joins=%d semijoins=%d yannakakis=%d, want 2/4/2", snap.Joins, snap.Semijoins, snap.YannakakisJoins)
	}
	if sp.Semijoins != 0 || sp.ReducedRows != 0 {
		t.Errorf("fallback annotated the span: semijoins=%d reduced=%d", sp.Semijoins, sp.ReducedRows)
	}
	if !out.Equal(want) {
		t.Errorf("cyclic fallback = %v, want %v", out.Sorted(), want.Sorted())
	}
}

func TestYannakakisBinaryAndSingle(t *testing.T) {
	r1 := rel(t, "A B", "1 x", "2 y")
	r2 := rel(t, "B C", "x p")
	out, err := Yannakakis{}.Join(Exec{}, r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(rel(t, "A B C", "1 x p")) {
		t.Errorf("binary join = %v", out.Sorted())
	}
	single, err := Yannakakis{}.JoinAll(Exec{}, NewPlan(r1))
	if err != nil || single != r1 {
		t.Errorf("single input: %v, %v", single, err)
	}
	if _, err := (Yannakakis{}).JoinAll(Exec{}, NewPlan()); err == nil {
		t.Error("zero inputs accepted")
	}
}

func TestYannakakisDisconnectedComponents(t *testing.T) {
	// Two components: a cartesian product of a reduced chain and a lone
	// relation. GYO links components through empty-intersection
	// containment, and the tree joins produce the cross product.
	r1 := rel(t, "A B", "1 x", "2 dead")
	r2 := rel(t, "B C", "x p")
	r3 := rel(t, "D", "d1", "d2")
	want, err := Multi(Exec{}, NewPlan(r1, r2, r3), Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	sp := &obs.Span{}
	out, err := Yannakakis{}.JoinAll(Exec{Span: sp}, NewPlan(r1, r2, r3))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Structure != obs.StructureAcyclic {
		t.Errorf("disconnected acyclic components recorded structure=%q", sp.Structure)
	}
	if !out.Equal(want) {
		t.Errorf("disconnected join = %v, want %v", out.Sorted(), want.Sorted())
	}
	if out.Len() != 2 { // (1 x p) × {d1, d2}
		t.Errorf("cross product has %d tuples, want 2", out.Len())
	}
}

func TestYannakakisEmptyRelationEmptiesJoin(t *testing.T) {
	r1 := rel(t, "A B", "1 x")
	r2 := rel(t, "B C") // empty
	r3 := rel(t, "C D", "p 7")
	sp := &obs.Span{}
	out, err := Yannakakis{}.JoinAll(Exec{Span: sp}, NewPlan(r1, r2, r3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("join with empty input = %v", out.Sorted())
	}
	if sp.ReducedRows != 0 {
		t.Errorf("reduced rows = %d, want 0", sp.ReducedRows)
	}
}

// TestYannakakisBudgetAborts: the row budget reaches the full reducer's
// own materializations — the first semijoin result already has two rows.
func TestYannakakisBudgetAborts(t *testing.T) {
	r1 := rel(t, "A B", "1 x", "2 y")
	r2 := rel(t, "B C", "x p", "y q")
	r3 := rel(t, "C D", "p 7", "q 8")
	m := &obs.Metrics{}
	gov := governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 1})
	_, err := Yannakakis{}.JoinAll(Exec{Gov: gov, Metrics: m}, NewPlan(r1, r2, r3))
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Errorf("budget violation not propagated: %v", err)
	}
	if snap := m.Snapshot(); snap.Semijoins != 1 || snap.Joins != 0 {
		t.Errorf("aborted after semijoins=%d joins=%d, want 1/0", snap.Semijoins, snap.Joins)
	}
}

func TestFullReduceRejectsCyclic(t *testing.T) {
	r1 := rel(t, "A B", "1 1")
	r2 := rel(t, "B C", "1 1")
	r3 := rel(t, "A C", "1 1")
	if _, _, err := FullReduce([]*relation.Relation{r1, r2, r3}); err == nil {
		t.Error("cyclic full reduction accepted")
	}
	out, n, err := FullReduce(nil)
	if err != nil || len(out) != 0 || n != 0 {
		t.Errorf("FullReduce(nil) = %v, %d, %v", out, n, err)
	}
}
