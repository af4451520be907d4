// Parity and acceptance tests for the acyclic fast path: GYO detection
// plus the Yannakakis full reducer behind -join=auto. The families here
// are the acyclic counterpart of the Lemma 1 gadgets: path, star and
// snowflake hypergraphs seeded with dangling tuples so every binary plan
// the greedy planner picks materializes a quadratic intermediate, while
// the full reducer's peak stays within output + largest input.
package relquery_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// acyclicFamily is one acyclic blow-up workload: a database, the n-ary
// join over it, and the family's scale knob (every relation holds
// scale+1 tuples; greedy peaks at scale²+1, the output is scale+1).
type acyclicFamily struct {
	db    relation.Database
	expr  algebra.Expr
	scale int
}

// acyclicFamilies builds the three shapes for a test.
func acyclicFamilies(t *testing.T) map[string]acyclicFamily {
	t.Helper()
	families, err := buildAcyclicFamilies()
	if err != nil {
		t.Fatal(err)
	}
	return families
}

// buildAcyclicFamilies builds the three shapes. Every relation in a
// family has the same cardinality, so the greedy planner's size products
// all tie and its deterministic first-pair tie-break walks straight into
// the quadratic pair — the same trap for both the actual-size and the
// estimated planner. Shared with the acyclic benchmarks.
func buildAcyclicFamilies() (map[string]acyclicFamily, error) {
	var firstErr error
	mustJoin := func(ops ...algebra.Expr) algebra.Expr {
		e, err := algebra.JoinAll(ops...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return e
	}
	newRel := func(attrs ...string) *relation.Relation {
		s, err := relation.NewScheme(toAttrs(attrs)...)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return relation.New(s)
	}
	op := func(name string, r *relation.Relation) algebra.Expr {
		return algebra.MustOperand(name, r.Scheme())
	}
	families := map[string]acyclicFamily{}

	// Path A–B–C–D: n dangling tuples on each of the two outer legs.
	{
		const n = 16
		r1, r2, r3 := newRel("A", "B"), newRel("B", "C"), newRel("C", "D")
		for i := 0; i < n; i++ {
			r1.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), "b0"))
			r2.MustAdd(relation.TupleOf("b0", fmt.Sprintf("c%d", i)))
			r3.MustAdd(relation.TupleOf("c*", fmt.Sprintf("d%d", i)))
		}
		r1.MustAdd(relation.TupleOf("a*", "b1"))
		r2.MustAdd(relation.TupleOf("b1", "c*"))
		r3.MustAdd(relation.TupleOf("c*", fmt.Sprintf("d%d", n)))
		db := relation.Database{"R1": r1, "R2": r2, "R3": r3}
		families["path"] = acyclicFamily{db, mustJoin(op("R1", r1), op("R2", r2), op("R3", r3)), n}
	}

	// Star around hub attribute A: two legs fan out on the hub value h0,
	// the third leg only knows h1.
	{
		const f = 12
		l1, l2, l3 := newRel("A", "B"), newRel("A", "C"), newRel("A", "D")
		for i := 0; i < f; i++ {
			l1.MustAdd(relation.TupleOf("h0", fmt.Sprintf("b%d", i)))
			l2.MustAdd(relation.TupleOf("h0", fmt.Sprintf("c%d", i)))
			l3.MustAdd(relation.TupleOf("h1", fmt.Sprintf("d%d", i)))
		}
		l1.MustAdd(relation.TupleOf("h1", "b*"))
		l2.MustAdd(relation.TupleOf("h1", "c*"))
		l3.MustAdd(relation.TupleOf("h1", fmt.Sprintf("d%d", f)))
		db := relation.Database{"L1": l1, "L2": l2, "L3": l3}
		families["star"] = acyclicFamily{db, mustJoin(op("L1", l1), op("L2", l2), op("L3", l3)), f}
	}

	// Snowflake: a fact relation over A B C with one dimension arm per
	// attribute; the B arm kills the fat a0 block, the C arm fans the one
	// surviving chain out to the output.
	{
		const f = 10
		fact := newRel("A", "B", "C")
		arm1, arm2, arm3 := newRel("A", "D"), newRel("B", "E"), newRel("C", "F")
		for i := 0; i < f; i++ {
			fact.MustAdd(relation.TupleOf("a0", fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)))
			arm1.MustAdd(relation.TupleOf("a0", fmt.Sprintf("d%d", i)))
			arm2.MustAdd(relation.TupleOf(fmt.Sprintf("bdead%d", i), fmt.Sprintf("e%d", i)))
			arm3.MustAdd(relation.TupleOf("c*", fmt.Sprintf("f%d", i)))
		}
		fact.MustAdd(relation.TupleOf("a1", "b*", "c*"))
		arm1.MustAdd(relation.TupleOf("a1", "d*"))
		arm2.MustAdd(relation.TupleOf("b*", "e*"))
		arm3.MustAdd(relation.TupleOf("c*", fmt.Sprintf("f%d", f)))
		db := relation.Database{"FACT": fact, "D1": arm1, "D2": arm2, "D3": arm3}
		families["snowflake"] = acyclicFamily{db, mustJoin(op("FACT", fact), op("D1", arm1), op("D2", arm2), op("D3", arm3)), f}
	}
	return families, firstErr
}

// yannakakisSpans collects every join span the full reducer executed.
func yannakakisSpans(sp *obs.Span) []*obs.Span {
	if sp == nil {
		return nil
	}
	var out []*obs.Span
	if sp.Op == obs.OpJoin && sp.Algorithm == "yannakakis" {
		out = append(out, sp)
	}
	for _, c := range sp.Children {
		out = append(out, yannakakisSpans(c)...)
	}
	return out
}

func toAttrs(names []string) []relation.Attribute {
	out := make([]relation.Attribute, len(names))
	for i, n := range names {
		out[i] = relation.Attribute(n)
	}
	return out
}

// TestYannakakisKillsAcyclicBlowup is the tentpole's acceptance test: on
// each acyclic family the greedy binary plan materializes scale²+1
// tuples, while -join=auto detects acyclicity, runs Yannakakis, stays
// within output + largest input, and produces a byte-identical result —
// also when forced via -join=yannakakis.
func TestYannakakisKillsAcyclicBlowup(t *testing.T) {
	for name, fam := range acyclicFamilies(t) {
		t.Run(name, func(t *testing.T) {
			// Sequential greedy reference, traced: establish the blow-up.
			refCol := &obs.Collector{}
			ref := algebra.Evaluator{Order: join.Greedy, Collector: refCol}
			want, err := ref.Eval(fam.expr, fam.db)
			if err != nil {
				t.Fatal(err)
			}
			greedyPeak := maxJoinRows(refCol.Trace().Root())
			if wantPeak := fam.scale*fam.scale + 1; greedyPeak != wantPeak {
				t.Fatalf("family lost its blow-up: greedy peak = %d, want %d", greedyPeak, wantPeak)
			}
			if want.Len() != fam.scale+1 {
				t.Fatalf("output = %d tuples, want %d", want.Len(), fam.scale+1)
			}

			largestInput := 0
			for _, name := range fam.db.Names() {
				r, err := fam.db.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if r.Len() > largestInput {
					largestInput = r.Len()
				}
			}

			// -join=auto, traced: the three-way selector must pick
			// Yannakakis and collapse the peak.
			col := &obs.Collector{}
			auto := algebra.Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true, Collector: col}
			got, err := auto.Eval(fam.expr, fam.db)
			if err != nil {
				t.Fatal(err)
			}
			if renderAs(t, got, want.Scheme()) != relation.RenderSorted(want) {
				t.Fatal("auto rendering not identical to sequential greedy engine")
			}
			spans := yannakakisSpans(col.Trace().Root())
			if len(spans) != 1 {
				t.Fatalf("auto ran %d yannakakis spans, want 1", len(spans))
			}
			sp := spans[0]
			if sp.Structure != obs.StructureAcyclic {
				t.Errorf("span structure = %q, want %q", sp.Structure, obs.StructureAcyclic)
			}
			if sp.Semijoins == 0 || sp.ReducedRows == 0 {
				t.Errorf("span carries no reducer counters: semijoins=%d reduced=%d", sp.Semijoins, sp.ReducedRows)
			}
			peak := maxJoinRows(col.Trace().Root())
			if limit := want.Len() + largestInput; peak > limit {
				t.Errorf("yannakakis peak %d exceeds output+largest input %d", peak, limit)
			}
			if peak >= greedyPeak {
				t.Errorf("yannakakis peak %d did not improve on greedy peak %d", peak, greedyPeak)
			}

			// Forced -join=yannakakis: same bytes.
			forced := algebra.Evaluator{Algorithm: join.Yannakakis{}, Order: join.Greedy}
			fgot, err := forced.Eval(fam.expr, fam.db)
			if err != nil {
				t.Fatal(err)
			}
			if renderAs(t, fgot, want.Scheme()) != relation.RenderSorted(want) {
				t.Fatal("forced yannakakis rendering differs from sequential engine")
			}

			// Left-to-right sequential order parity: a different binary
			// plan, same bytes.
			seq := algebra.Evaluator{Order: join.Sequential}
			sgot, err := seq.Eval(fam.expr, fam.db)
			if err != nil {
				t.Fatal(err)
			}
			if renderAs(t, sgot, want.Scheme()) != relation.RenderSorted(want) {
				t.Fatal("sequential-order rendering differs from greedy engine")
			}
		})
	}
}

// TestAcyclicExplainAnalyze checks EXPLAIN ANALYZE under -join=auto
// advertises the detection verdict and the reducer's counters.
func TestAcyclicExplainAnalyze(t *testing.T) {
	fam := acyclicFamilies(t)["path"]
	ev := algebra.Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true}
	text, err := algebra.ExplainAnalyzeWith(&ev, fam.expr, fam.db)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alg=yannakakis", "structure=acyclic", "semijoins=", "reduced=", "agm≤"} {
		if !strings.Contains(text, want) {
			t.Errorf("ExplainAnalyze output missing %q:\n%s", want, text)
		}
	}
	// The Lemma 1 gadgets stay on the wcoj arm: cyclic, marked as such.
	c, err := reduction.New(lemma1Families(t)["xorchain"])
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	gev := algebra.Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true}
	text, err = algebra.ExplainAnalyzeWith(&gev, phi, c.Database())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "structure=cyclic") {
		t.Errorf("cyclic gadget not marked structure=cyclic:\n%s", text)
	}
	if strings.Contains(text, "alg=yannakakis") {
		t.Errorf("cyclic gadget routed to yannakakis:\n%s", text)
	}
}

// TestYannakakisCyclicFallbackIsTheHashPlan: on a cyclic node Yannakakis'
// output bound does not hold, and JoinAll runs the greedy hash plan. On a
// triangle and on xorchain2's legs it writes the hash plan's rows in the
// hash plan's order, counts what the hash plan counts, and under a memory
// budget stops at the same byte — its intermediates are charged as row
// ids, not values — while the span still says cyclic.
func TestYannakakisCyclicFallbackIsTheHashPlan(t *testing.T) {
	c, err := reduction.New(lemma1Families(t)["xorchain"])
	if err != nil {
		t.Fatal(err)
	}
	legs, err := benchGadgetLegs(c)
	if err != nil {
		t.Fatal(err)
	}
	// Every pair over 0..5 whose sum is even, on each edge of A, B, C.
	triangle := make([]*relation.Relation, 3)
	for i, edge := range [][]relation.Attribute{{"A", "B"}, {"B", "C"}, {"A", "C"}} {
		triangle[i] = relation.New(relation.MustScheme(edge...))
		for u := 0; u < 6; u++ {
			for v := u % 2; v < 6; v += 2 {
				triangle[i].MustAdd(relation.TupleOf(fmt.Sprint(u), fmt.Sprint(v)))
			}
		}
	}
	for name, rels := range map[string][]*relation.Relation{"triangle": triangle, "xorchain2": legs} {
		t.Run(name, func(t *testing.T) {
			hash := func(x join.Exec) (*relation.Relation, error) {
				return join.Multi(x, join.NewPlan(rels...), join.Hash{}, join.Greedy)
			}
			yannakakis := func(x join.Exec) (*relation.Relation, error) {
				return join.Yannakakis{}.JoinAll(x, join.NewPlan(rels...))
			}
			run := func(f func(join.Exec) (*relation.Relation, error), budget int64) (*relation.Relation, obs.MetricsSnapshot, *obs.Span, error) {
				m, sp := &obs.Metrics{}, &obs.Span{}
				gov := governor.New(context.Background(), governor.Limits{MaxMemoryBytes: budget})
				out, err := f(join.Exec{Gov: gov, Metrics: m, Span: sp})
				return out, m.Snapshot(), sp, err
			}
			want, wantM, _, err := run(hash, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, gotM, sp, err := run(yannakakis, 0)
			if err != nil {
				t.Fatal(err)
			}
			if sp.Structure != obs.StructureCyclic {
				t.Errorf("span structure %q, want %q", sp.Structure, obs.StructureCyclic)
			}
			if !got.Scheme().SameOrder(want.Scheme()) || got.Len() != want.Len() {
				t.Fatalf("scheme %v and %d rows, the hash plan's %v and %d", got.Scheme(), got.Len(), want.Scheme(), want.Len())
			}
			for i := 0; i < got.Len(); i++ {
				if !got.Tuple(i).Equal(want.Tuple(i)) {
					t.Fatalf("row %d is %v, the hash plan's %v", i, got.Tuple(i), want.Tuple(i))
				}
			}
			if gotM != wantM {
				t.Errorf("the fallback counted %v\nthe hash plan %v", gotM, wantM)
			}
			if wantM.Joins < 2 {
				t.Fatalf("%d joins: the plan has no intermediate to charge", wantM.Joins)
			}
			// The hash plan's total charge: the least budget it completes
			// under.
			lo, hi := int64(0), int64(1)<<40
			for hi-lo > 1 {
				mid := lo + (hi-lo)/2
				if _, _, _, err := run(hash, mid); err == nil {
					hi = mid
				} else {
					lo = mid
				}
			}
			charge := hi
			for _, budget := range []int64{charge, charge - 1, charge / 2} {
				_, _, _, herr := run(hash, budget)
				_, _, _, yerr := run(yannakakis, budget)
				if (budget == charge) != (herr == nil) || fmt.Sprint(herr) != fmt.Sprint(yerr) {
					t.Errorf("under a memory budget of %d bytes (the hash plan's charge is %d): the hash plan %v, the fallback %v", budget, charge, herr, yerr)
				}
			}
		})
	}
}
