package algebra

import (
	"context"
	"runtime"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// memoized reports whether read returns a fact its plan has already
// computed: reading a memoized fact allocates nothing, while GYO, the
// cover LP and the greedy simulation each allocate.
func memoized(read func()) bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	return after.Mallocs == before.Mallocs
}

// chainPlan is a fresh plan over the chain workload's three relations.
func chainPlan(t *testing.T) *join.Plan {
	t.Helper()
	_, db := chainWorkload(t)
	args := make([]*relation.Relation, 0, 3)
	for _, name := range []string{"R1", "R2", "R3"} {
		r, err := db.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, r)
	}
	return join.NewPlan(args...)
}

// TestJoinNodeReadsOnlyWhatItNeeds: an acyclic node under the auto
// selector — traced and admission-gated, as relqueryd runs it — is decided
// by GYO and never runs the greedy simulation's scan of every input row;
// an untraced, un-admitted forced hash node computes no planning fact at
// all.
func TestJoinNodeReadsOnlyWhatItNeeds(t *testing.T) {
	limits := governor.Limits{MaxIntermediateRows: 1 << 30}

	col := &obs.Collector{}
	auto := &Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true, Admit: true, Collector: col, Limits: limits}
	p := chainPlan(t)
	sp := col.Start(obs.OpJoin, "*")
	x := join.Exec{Gov: governor.New(context.Background(), limits), Metrics: col.M(), Span: sp}
	alg := auto.choose(p, sp)
	if alg.Name() != "yannakakis" {
		t.Fatalf("auto chose %s for the acyclic chain, want yannakakis", alg.Name())
	}
	if _, err := auto.run(x, p, alg); err != nil {
		t.Fatal(err)
	}
	if !memoized(func() { p.JoinTree() }) || !memoized(func() { p.AGMBound() }) {
		t.Error("the auto node did not leave its join tree and AGM bound on the plan")
	}
	if memoized(func() { p.Peaks() }) {
		t.Error("an acyclic auto node ran the greedy simulation")
	}

	hash := &Evaluator{Order: join.Greedy, Algorithm: join.Hash{}, Limits: limits}
	p = chainPlan(t)
	x = join.Exec{Gov: governor.New(context.Background(), limits)}
	if _, err := hash.run(x, p, hash.choose(p, nil)); err != nil {
		t.Fatal(err)
	}
	if memoized(func() { p.Peaks() }) || memoized(func() { p.AGMBound() }) || memoized(func() { p.JoinTree() }) {
		t.Error("an untraced, un-admitted hash node computed a planning fact")
	}
}
