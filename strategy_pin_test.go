package relquery_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

var updateStrategyPin = flag.Bool("update-strategy-pin", false, "rewrite testdata/strategy_pin.json from this build")

// strategyPin is what one (family, strategy) evaluation must reproduce:
// every evaluation-wide counter and the outermost join span's
// observation fields.
type strategyPin struct {
	Metrics   obs.MetricsSnapshot `json:"metrics"`
	Peak      int                 `json:"peak"`
	AGM       float64             `json:"agm"`
	Algorithm string              `json:"algorithm"`
	Structure string              `json:"structure"`
}

// TestStrategyObservationsPinned holds every strategy to the counters
// and span fields recorded in testdata/strategy_pin.json, which was
// captured by running this same test with -update-strategy-pin at
// commit 16de987, before the governor, metrics and span reached the
// joins through join.Exec. A difference means an observation point
// moved: a join, semijoin or intermediate is counted, peak-tracked or
// budget-checked somewhere it was not, or no longer is.
func TestStrategyObservationsPinned(t *testing.T) {
	type workload struct {
		expr   algebra.Expr
		db     relation.Database
		gadget bool
	}
	workloads := map[string]workload{}
	lemma1 := lemma1Families(t)
	for name, g := range map[string]*cnf.Formula{"xorchain2": lemma1["xorchain"], "pigeonhole1": lemma1["pigeonhole"]} {
		c, err := reduction.New(g)
		if err != nil {
			t.Fatal(err)
		}
		phi, err := c.PhiG()
		if err != nil {
			t.Fatal(err)
		}
		workloads[name] = workload{phi, c.Database(), true}
	}
	for name, fam := range acyclicFamilies(t) {
		workloads[name] = workload{fam.expr, fam.db, false}
	}

	forced := func(name string) algebra.Evaluator {
		alg, err := join.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return algebra.Evaluator{Algorithm: alg, Order: join.Greedy}
	}
	strategies := map[string]algebra.Evaluator{
		"hash":       forced("hash"),
		"sortmerge":  forced("sortmerge"),
		"nestedloop": forced("nestedloop"),
		"parallel-8": {Order: join.Greedy, Parallelism: 8},
		"wcoj":       forced("wcoj"),
		"yannakakis": forced("yannakakis"),
		"auto":       {Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true},
	}

	got := map[string]strategyPin{}
	for wname, w := range workloads {
		for sname, ev := range strategies {
			if testing.Short() && sname == "nestedloop" && w.gadget {
				continue // |l|·|r| pairs per join on the gadgets: minutes under -race
			}
			col := &obs.Collector{}
			ev.Collector = col
			if _, err := ev.Eval(w.expr, w.db); err != nil {
				t.Fatalf("%s/%s: %v", wname, sname, err)
			}
			tr := col.Trace()
			sp := outermostJoin(tr.Root())
			if sp == nil {
				t.Fatalf("%s/%s: no join span", wname, sname)
			}
			got[wname+"/"+sname] = strategyPin{
				Metrics:   tr.Metrics,
				Peak:      sp.MaxIntermediate,
				AGM:       sp.AGMBound,
				Algorithm: sp.Algorithm,
				Structure: sp.Structure,
			}
		}
	}

	const path = "testdata/strategy_pin.json"
	if *updateStrategyPin {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]strategyPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) && !testing.Short() {
		t.Errorf("%d evaluations, pinned table has %d", len(got), len(want))
	}
	for key, g := range got {
		if w, ok := want[key]; !ok || g != w {
			t.Errorf("%s:\n got  %+v\n want %+v", key, g, w)
		}
	}
}

// outermostJoin returns the first join span in pre-order.
func outermostJoin(sp *obs.Span) *obs.Span {
	if sp == nil || sp.Op == obs.OpJoin {
		return sp
	}
	for _, c := range sp.Children {
		if j := outermostJoin(c); j != nil {
			return j
		}
	}
	return nil
}

// TestPlanMatchesStandalonePlanners: on the pinned families' join inputs,
// the facts of one join.Plan — which the selector, both admission gates,
// the span and the strategies read — are bit-identical to what the
// standalone planners compute from scratch, and what the replay reads.
func TestPlanMatchesStandalonePlanners(t *testing.T) {
	inputs := map[string][]*relation.Relation{}
	for name, g := range lemma1Families(t) {
		c, err := reduction.New(g)
		if err != nil {
			t.Fatal(err)
		}
		legs, err := benchGadgetLegs(c)
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = legs
	}
	for name, fam := range acyclicFamilies(t) {
		for _, rel := range fam.db.Names() {
			r, err := fam.db.Get(rel)
			if err != nil {
				t.Fatal(err)
			}
			inputs[name] = append(inputs[name], r)
		}
	}
	for name, rels := range inputs {
		p := join.NewPlan(rels...)
		schemes := join.SchemesOf(rels)
		sizes := make([]int, len(rels))
		for i, r := range rels {
			sizes[i] = r.Len()
		}
		tree, acyclic := p.JoinTree()
		if wantTree, want := join.JoinTreeOf(schemes); acyclic != want || !reflect.DeepEqual(tree, wantTree) {
			t.Errorf("%s: plan tree = %+v, %v; JoinTreeOf = %+v, %v", name, tree, acyclic, wantTree, want)
		}
		cover, bound := p.Cover()
		if wantCover, wantBound := join.FractionalCover(schemes, sizes); bound != wantBound || !reflect.DeepEqual(cover, wantCover) {
			t.Errorf("%s: plan cover = %v, %v; FractionalCover = %v, %v", name, cover, bound, wantCover, wantBound)
		}
		if want := join.AGMBoundOf(rels); p.AGMBound() != want || want == 0 {
			t.Errorf("%s: plan bound = %v, AGMBoundOf = %v", name, p.AGMBound(), want)
		}
		est, worst := p.Peaks()
		if wantEst, wantWorst := join.PredictedPeakGreedy(rels), join.WorstCasePeakGreedy(rels); est != wantEst || worst != wantWorst {
			t.Errorf("%s: plan peaks = %v, %v; standalone = %v, %v", name, est, worst, wantEst, wantWorst)
		}
		if got := p.Peak(); got != max(est, worst) || got == 0 {
			t.Errorf("%s: plan peak = %v, want max(%v, %v)", name, got, est, worst)
		}
	}
}

// TestAutoPlansEachNodeOnce: a traced -join=auto evaluation of one cyclic
// gadget join node runs GYO, the cover LP and the greedy simulation once
// each. Before the node had one join.Plan, the selector, the span
// annotation and the generic join's attribute order each solved the LP
// again (and collected the schemes again): 688, 3182 and 4829 allocations
// on these three gadgets against 594, 2946 and 4501 now. The ceilings sit
// between.
func TestAutoPlansEachNodeOnce(t *testing.T) {
	ceilings := map[string]float64{"paper": 640, "xorchain": 3060, "pigeonhole": 4660}
	for name, g := range lemma1Families(t) {
		c, err := reduction.New(g)
		if err != nil {
			t.Fatal(err)
		}
		legs, err := benchGadgetLegs(c)
		if err != nil {
			t.Fatal(err)
		}
		db := relation.NewDatabase()
		operands := make([]algebra.Expr, len(legs))
		for i, leg := range legs {
			legName := fmt.Sprintf("L%d", i)
			db.Put(legName, leg)
			operands[i] = algebra.MustOperand(legName, leg.Scheme())
		}
		node, err := algebra.JoinAll(operands...)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			col := &obs.Collector{}
			ev := algebra.Evaluator{AutoWCOJ: true, AutoYannakakis: true, Collector: col}
			if _, err := ev.Eval(node, db); err != nil {
				t.Fatal(err)
			}
			if j := outermostJoin(col.Trace().Root()); j.Algorithm != "wcoj" || j.AGMBound == 0 {
				t.Fatalf("%s: node ran %q with agm %v, want wcoj under its AGM bound", name, j.Algorithm, j.AGMBound)
			}
		})
		if allocs > ceilings[name] {
			t.Errorf("%s: traced auto evaluation allocates %v times, ceiling %v", name, allocs, ceilings[name])
		}
	}
}
