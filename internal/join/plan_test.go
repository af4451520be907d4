package join

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
)

// known reports whether read returns a fact that has already been
// computed: reading one allocates nothing, while GYO, the AGM LP and the
// greedy simulation each allocate.
func known(read func()) bool {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	return after.Mallocs == before.Mallocs
}

// knownFacts is which facts p's Facts holds. It computes the ones it finds
// missing, so it is the last thing to ask of a plan.
func knownFacts(p *Plan) (f struct{ hypergraph, tree, bound, peaks bool }) {
	f.hypergraph = p.hg != nil
	f.tree = known(func() { p.JoinTree() })
	f.bound = known(func() { p.AGMBound() })
	f.peaks = known(func() { p.Peaks() })
	return f
}

// checkPlanParity holds every fact of p to the standalone planner that
// computes it from scratch, whatever p has already been used for.
func checkPlanParity(t *testing.T, p *Plan) {
	t.Helper()
	edges := SchemesOf(p.Inputs)
	sizes := make([]int, len(p.Inputs))
	for i, r := range p.Inputs {
		sizes[i] = r.Len()
	}
	tree, acyclic := p.JoinTree()
	if wantTree, want := JoinTreeOf(edges); acyclic != want || !reflect.DeepEqual(tree, wantTree) {
		t.Errorf("plan tree = %+v, %v; JoinTreeOf = %+v, %v", tree, acyclic, wantTree, want)
	}
	bound := p.AGMBound()
	if _, want := FractionalCover(edges, sizes); bound != want {
		t.Errorf("plan bound = %v, FractionalCover = %v", bound, want)
	}
	if want := AGMBoundOf(p.Inputs); bound != want {
		t.Errorf("plan bound = %v, AGMBoundOf = %v", bound, want)
	}
	est, worst := p.Peaks()
	if wantEst, wantWorst := PredictedPeakGreedy(p.Inputs), WorstCasePeakGreedy(p.Inputs); est != wantEst || worst != wantWorst {
		t.Errorf("plan peaks = %v, %v; standalone = %v, %v", est, worst, wantEst, wantWorst)
	}
	if got := p.Peak(); got != max(est, worst) {
		t.Errorf("plan peak = %v, want max(%v, %v)", got, est, worst)
	}
}

func trianglePlan(t *testing.T) *Plan {
	return NewPlan(
		rel(t, "A B", "1 1", "1 2", "2 1", "3 3"),
		rel(t, "B C", "1 1", "2 1", "1 2", "3 3"),
		rel(t, "A C", "1 1", "1 2", "2 2", "3 3"),
	)
}

func chainPlan(t *testing.T) *Plan {
	return NewPlan(
		rel(t, "A B", "1 x", "2 x", "2 y"),
		rel(t, "B C", "x p", "y q"),
		rel(t, "C D", "p 7", "q 8", "q 9"),
	)
}

// TestPlanComputesEachFactOnce: a second read hands back the memoized
// tree itself, not an equal recomputation.
func TestPlanComputesEachFactOnce(t *testing.T) {
	for name, p := range map[string]*Plan{"triangle": trianglePlan(t), "chain": chainPlan(t)} {
		tree, _ := p.JoinTree()
		checkPlanParity(t, p)
		if again, _ := p.JoinTree(); again != tree {
			t.Errorf("%s: second JoinTree read is a different tree", name)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			p.JoinTree()
			p.AGMBound()
			p.Peak()
		}); allocs != 0 {
			t.Errorf("%s: reading a computed plan allocates %v times", name, allocs)
		}
	}
}

// TestPlanIsLazy: each strategy computes only the facts it reads. The
// binary plan reads none, Yannakakis only the tree, and the generic join
// none either — its attribute order is the output's column order — and
// none of them the greedy simulation, which scans every input row.
func TestPlanIsLazy(t *testing.T) {
	type computed = struct{ hypergraph, tree, bound, peaks bool }
	cases := []struct {
		name string
		alg  Algorithm
		want computed
	}{
		{"hash", Hash{}, computed{}},
		{"yannakakis", Yannakakis{}, computed{hypergraph: true, tree: true}},
		{"wcoj", Generic{}, computed{}},
	}
	for _, tc := range cases {
		for _, p := range []*Plan{trianglePlan(t), chainPlan(t)} {
			if _, err := Multi(Exec{}, p, tc.alg, Greedy); err != nil {
				t.Fatal(err)
			}
			if got := knownFacts(p); got != tc.want {
				t.Errorf("%s computed %+v, want %+v", tc.name, got, tc.want)
			}
		}
	}
}

// TestAdmissionCarriesPlanNumbers: a plan the budget admits is admitted on
// its peak, and a rejection carries both of the plan's numbers.
func TestAdmissionCarriesPlanNumbers(t *testing.T) {
	admit := func(p *Plan, budget int) error {
		return governor.New(context.Background(), governor.Limits{MaxIntermediateRows: budget}).Admit(p)
	}
	p := trianglePlan(t) // bound 8, worst-case greedy peak 16
	if err := admit(p, 16); err != nil {
		t.Errorf("admit at the peak = %v, want admitted", err)
	}
	err := admit(p, 1)
	var ae *governor.AdmissionError
	if !errors.Is(err, governor.ErrAdmission) || !errors.As(err, &ae) {
		t.Fatalf("admit over budget = %v, want an AdmissionError", err)
	}
	if ae.PredictedPeak != p.Peak() || ae.AGMBound != p.AGMBound() || ae.AGMBound == 0 || ae.Budget != 1 {
		t.Errorf("rejection carries %+v, want peak %v and bound %v", *ae, p.Peak(), p.AGMBound())
	}
}

// TestFactsAreCompletedNotRecomputed: a later plan over the same Facts
// finds what an earlier one computed — the tree a forced Yannakakis node
// left — and adds only what it reads itself; a third finds everything and
// solves no LP.
func TestFactsAreCompletedNotRecomputed(t *testing.T) {
	facts := new(Facts)
	inputs := trianglePlan(t).Inputs
	first := facts.Plan(inputs...)
	tree, _ := first.JoinTree()

	m := &obs.Metrics{}
	second := facts.Plan(inputs...)
	second.Metrics = m
	if again, _ := second.JoinTree(); again != tree || !known(func() { second.JoinTree() }) {
		t.Error("the second plan computed the tree again")
	}
	if known(func() { second.AGMBound() }) || known(func() { second.Peaks() }) {
		t.Error("a tree-only Facts already held a bound or peaks")
	}
	solved := m.Planning().CoverLPSolves
	if solved != 2 { // the n-ary LP and the one intermediate accumulator of three inputs
		t.Errorf("completing the facts solved %d LPs, want 2", solved)
	}
	checkPlanParity(t, &second)

	third := facts.Plan(inputs...)
	third.Metrics = m
	if got := knownFacts(&third); !got.tree || !got.bound || !got.peaks || got.hypergraph {
		t.Errorf("a plan over complete facts computed something: %+v", got)
	}
	if m.Planning().CoverLPSolves != solved {
		t.Error("a plan over complete facts solved an LP")
	}
}

// TestFactsConcurrentPlansComputeOnce: eight goroutines plan the same cold
// node through one Facts, each over its own Plan. Every fact is computed
// by exactly one of them — two LPs in all — and everyone reads the one
// published tree and bound; -race proves nothing is written after that.
func TestFactsConcurrentPlansComputeOnce(t *testing.T) {
	facts := new(Facts)
	inputs := trianglePlan(t).Inputs
	want := NewPlan(inputs...)
	wantTree, _ := want.JoinTree()
	wantBound := want.AGMBound()
	wantEst, wantWorst := want.Peaks()

	m := &obs.Metrics{}
	const goroutines = 8
	trees := make([]*JoinTree, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := facts.Plan(inputs...)
			p.Metrics = m
			trees[g], _ = p.JoinTree()
			bound := p.AGMBound()
			est, worst := p.Peaks()
			if bound != wantBound || est != wantEst || worst != wantWorst {
				t.Errorf("goroutine %d: bound %v peaks %v %v, want %v %v %v", g, bound, est, worst, wantBound, wantEst, wantWorst)
			}
		}(g)
	}
	wg.Wait()
	if solved := m.Planning().CoverLPSolves; solved != 2 {
		t.Errorf("%d goroutines solved %d LPs between them, want 2", goroutines, solved)
	}
	for g := range trees {
		if trees[g] != trees[0] {
			t.Fatalf("goroutine %d read its own tree", g)
		}
	}
	if !reflect.DeepEqual(trees[0], wantTree) {
		t.Errorf("published tree %+v, want %+v", trees[0], wantTree)
	}
}
