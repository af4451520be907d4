package join

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"relquery/internal/governor"
)

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
	cover, bound := p.Cover()
	if wantCover, wantBound := FractionalCover(edges, sizes); bound != wantBound || !reflect.DeepEqual(cover, wantCover) {
		t.Errorf("plan cover = %v, %v; FractionalCover = %v, %v", cover, bound, wantCover, wantBound)
	}
	if got, want := p.AGMBound(), AGMBoundOf(p.Inputs); got != want {
		t.Errorf("plan bound = %v, AGMBoundOf = %v", got, want)
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
// tree and cover themselves, not equal recomputations.
func TestPlanComputesEachFactOnce(t *testing.T) {
	for name, p := range map[string]*Plan{"triangle": trianglePlan(t), "chain": chainPlan(t)} {
		tree, _ := p.JoinTree()
		cover, _ := p.Cover()
		checkPlanParity(t, p)
		if again, _ := p.JoinTree(); again != tree {
			t.Errorf("%s: second JoinTree read is a different tree", name)
		}
		if again, _ := p.Cover(); &again[0] != &cover[0] {
			t.Errorf("%s: second Cover read is a different slice", name)
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
// binary plan reads none, Yannakakis only the tree, the generic join only
// the cover — and none of them the greedy simulation, which scans every
// input row.
func TestPlanIsLazy(t *testing.T) {
	type computed struct{ hypergraph, tree, cover, peaks bool }
	cases := []struct {
		name string
		alg  Algorithm
		want computed
	}{
		{"hash", Hash{}, computed{}},
		{"yannakakis", Yannakakis{}, computed{hypergraph: true, tree: true}},
		{"wcoj", Generic{}, computed{hypergraph: true, cover: true}},
	}
	for _, tc := range cases {
		for _, p := range []*Plan{trianglePlan(t), chainPlan(t)} {
			if _, err := Multi(Exec{}, p, tc.alg, Greedy); err != nil {
				t.Fatal(err)
			}
			if got := (computed{p.edges != nil, p.treeDone, p.coverDone, p.peaksDone}); got != tc.want {
				t.Errorf("%s computed %+v, want %+v", tc.name, got, tc.want)
			}
		}
	}
}

// TestAdmitReadsBoundBeforePeak: an output-bounded strategy whose AGM
// bound fits the budget is admitted without the greedy simulation; a
// rejection carries both of the plan's numbers.
func TestAdmitReadsBoundBeforePeak(t *testing.T) {
	admit := func(p *Plan, budget int, outputBounded bool) error {
		return governor.New(context.Background(), governor.Limits{MaxIntermediateRows: budget}).Admit(p, outputBounded)
	}
	p := trianglePlan(t) // bound 8, worst-case greedy peak 16
	if err := admit(p, 9, true); err != nil || p.peaksDone {
		t.Errorf("bounded admit = %v, simulated = %v; want admitted on the bound alone", err, p.peaksDone)
	}
	p = trianglePlan(t)
	err := admit(p, 1, true)
	var ae *governor.AdmissionError
	if !errors.Is(err, governor.ErrAdmission) || !errors.As(err, &ae) {
		t.Fatalf("admit over budget = %v, want an AdmissionError", err)
	}
	if ae.PredictedPeak != p.Peak() || ae.AGMBound != p.AGMBound() || ae.AGMBound == 0 || ae.Budget != 1 {
		t.Errorf("rejection carries %+v, want peak %v and bound %v", *ae, p.Peak(), p.AGMBound())
	}
}
