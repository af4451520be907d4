package relquery_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
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
		expr algebra.Expr
		db   relation.Database
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
		workloads[name] = workload{phi, c.Database()}
	}
	for name, fam := range acyclicFamilies(t) {
		workloads[name] = workload{fam.expr, fam.db}
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
		"wcoj":       forced("wcoj"),
		"yannakakis": forced("yannakakis"),
		"auto":       {Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true},
	}

	got := map[string]strategyPin{}
	for wname, w := range workloads {
		for sname, ev := range strategies {
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
	if len(got) != len(want) {
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

// pinnedJoinInputs is the inputs of one n-ary join node per pinned family:
// φ_G's projection legs for the Lemma 1 gadgets, the catalog's relations
// for the acyclic shapes.
func pinnedJoinInputs(t *testing.T) map[string][]*relation.Relation {
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
	return inputs
}

// factsPin is every planning fact of one join node and the cover
// FractionalCover returns for it, floats by their bits (see internal/join's
// TestPlanFactsPinned, which pins the same record on fuzzed hypergraphs).
type factsPin struct {
	Parent []int    `json:"parent,omitempty"` // nil: cyclic
	Order  []int    `json:"order,omitempty"`
	Cover  []uint64 `json:"cover,omitempty"`
	Bound  uint64   `json:"bound"`
	Est    uint64   `json:"est"`
	Worst  uint64   `json:"worst"`
}

func pinFacts(p *join.Plan) factsPin {
	var pin factsPin
	if tree, ok := p.JoinTree(); ok {
		pin.Parent, pin.Order = tree.Parent, tree.Order
	}
	sizes := make([]int, len(p.Inputs))
	for i, r := range p.Inputs {
		sizes[i] = r.Len()
	}
	cover, _ := join.FractionalCover(join.SchemesOf(p.Inputs), sizes)
	for _, x := range cover {
		pin.Cover = append(pin.Cover, math.Float64bits(x))
	}
	est, worst := p.Peaks()
	pin.Bound, pin.Est, pin.Worst = math.Float64bits(p.AGMBound()), math.Float64bits(est), math.Float64bits(worst)
	return pin
}

// TestFamilyPlanFactsPinned holds tree, cover, bound and both peaks of the
// pinned families' join nodes to testdata/plan_facts_pin.json, bit for bit.
// Tree and estimated peak are as recorded at 2404f4a, before the planners
// were rewritten to stop allocating per pair; bound, worst-case peak and
// cover were re-recorded with -update-strategy-pin when the AGM LP became
// its packing dual, which moved them in the last bits only.
func TestFamilyPlanFactsPinned(t *testing.T) {
	const path = "testdata/plan_facts_pin.json"
	got, warm := map[string]factsPin{}, map[string]factsPin{}
	for name, rels := range pinnedJoinInputs(t) {
		facts := new(join.Facts)
		cold, again := facts.Plan(rels...), facts.Plan(rels...)
		got[name] = pinFacts(&cold)
		warm[name] = pinFacts(&again)
	}
	if *updateStrategyPin {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
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
	var want map[string]factsPin
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan facts moved:\n got  %+v\n want %+v", got, want)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Errorf("a second plan over the same facts read:\n got  %+v\n want %+v", warm, want)
	}
}

// TestPlanMatchesStandalonePlanners: on the pinned families' join inputs,
// the facts of one join.Plan — which the selector, both admission gates,
// the span and the strategies read — are bit-identical to what the
// standalone planners compute from scratch, and what the replay reads.
func TestPlanMatchesStandalonePlanners(t *testing.T) {
	inputs := pinnedJoinInputs(t)
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
		bound := p.AGMBound()
		if _, want := join.FractionalCover(schemes, sizes); bound != want {
			t.Errorf("%s: plan bound = %v, FractionalCover = %v", name, bound, want)
		}
		if want := join.AGMBoundOf(rels); bound != want || want == 0 {
			t.Errorf("%s: plan bound = %v, AGMBoundOf = %v", name, bound, want)
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

// gadgetNode is one n-ary join node over φ_G's materialized legs, each leg
// an operand of its own in db.
func gadgetNode(t *testing.T, g *cnf.Formula) (algebra.Expr, relation.Database) {
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
	return node, db
}

// TestAutoPlansEachNodeOnce: a traced -join=auto evaluation of one cyclic
// gadget join node that knows nothing yet runs GYO, the AGM LP and the
// greedy simulation once each, and none of them allocates per candidate
// pair, per merge or per LP — nor, since rows are carved from backing
// arrays, per stored row: 147, 389 and 522 allocations on these three
// gadgets. With one make per row it was 282, 853 and 1085; with one
// join.Plan per node but Scheme-and-map planners 594, 2946 and 4501;
// before that, with the selector, the span annotation and the generic
// join's attribute order each solving the LP again, 688, 3182 and 4829.
// The ceilings sit a tenth above the first row.
func TestAutoPlansEachNodeOnce(t *testing.T) {
	ceilings := map[string]float64{"paper": 200, "xorchain": 480, "pigeonhole": 640}
	for name, g := range lemma1Families(t) {
		node, db := gadgetNode(t, g)
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
		t.Logf("%s: traced auto evaluation allocates %v times", name, allocs)
		if allocs > ceilings[name] {
			t.Errorf("%s: traced auto evaluation allocates %v times, ceiling %v", name, allocs, ceilings[name])
		}
	}
}

// TestWarmAutoCostsWhatItPicks: once a shared cache holds a cyclic gadget
// node's facts, a traced auto evaluation of it — its result dropped before
// every run, as /v1/cache/reset does, so the join really runs — allocates
// what the forced wcoj it picks allocates: the selector reads three
// memoized numbers. When every request planned its nodes from nothing the
// gap was 306, 2048 and 3341 allocations on these gadgets.
func TestWarmAutoCostsWhatItPicks(t *testing.T) {
	for name, g := range lemma1Families(t) {
		node, db := gadgetNode(t, g)
		warm := func(ev algebra.Evaluator) float64 {
			ev.SharedCache = algebra.NewSubexprCache()
			return testing.AllocsPerRun(5, func() { // its warm-up run fills the facts
				ev.SharedCache.Reset()
				ev.Collector = &obs.Collector{}
				if _, err := ev.Eval(node, db); err != nil {
					t.Fatal(err)
				}
				if j := outermostJoin(ev.Collector.Trace().Root()); j.Algorithm != "wcoj" || j.AGMBound == 0 {
					t.Fatalf("%s: node ran %q with agm %v, want wcoj under its AGM bound", name, j.Algorithm, j.AGMBound)
				}
			})
		}
		auto := warm(algebra.Evaluator{AutoWCOJ: true, AutoYannakakis: true})
		wcoj := warm(algebra.Evaluator{Algorithm: join.Generic{}})
		t.Logf("%s: warm auto %v allocations, warm forced wcoj %v", name, auto, wcoj)
		if auto > wcoj+4 {
			t.Errorf("%s: warm auto evaluation allocates %v times, the wcoj it picks %v", name, auto, wcoj)
		}
	}
}
