package algebra

import (
	"context"
	"math"
	"runtime"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// memoized reports whether read returns a fact its plan has already
// computed: reading a memoized fact allocates nothing, while GYO, the
// AGM LP on a fresh plan and the greedy simulation each allocate.
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
	// The bound is asked before the peaks: an LP that finds its scratch
	// tableau already sized by the simulation's LPs allocates nothing.
	if memoized(func() { p.AGMBound() }) || memoized(func() { p.Peaks() }) || memoized(func() { p.JoinTree() }) {
		t.Error("an untraced, un-admitted hash node computed a planning fact")
	}
}

// TestTieKeepsTheBinaryPlan: on this cyclic node the greedy plan's worst
// peak — the accumulator of the two 3-row inputs, 3·3 rows — equals the
// node's AGM bound, 9, and the two LPs round to either side of it. Under
// auto the node keeps the binary algorithm: a tie is no blow-up.
func TestTieKeepsTheBinaryPlan(t *testing.T) {
	p := join.NewPlan(
		mkrel(t, "A C", "0 0", "1 0", "e e"),
		mkrel(t, "B C D", "e 1 e", "e e e", "1 0 1"),
		mkrel(t, "A D", "0 1", "0 e", "1 e", "1 0", "e 1", "e 0"),
		mkrel(t, "A B C", "e e 0", "0 e 0", "1 0 1", "1 0 e", "1 1 0"),
	)
	if peak, bound := p.Peak(), p.AGMBound(); peak <= bound || math.Abs(peak-9) > 1e-12 || math.Abs(bound-9) > 1e-12 {
		t.Fatalf("peak %v, bound %v: want a tie at 9 that rounding puts the peak above", peak, bound)
	}
	auto := &Evaluator{AutoWCOJ: true, AutoYannakakis: true}
	if alg := auto.choose(p, nil); alg.Name() != "hash" {
		t.Errorf("auto sent a tie node to %s, want hash", alg.Name())
	}
}
