package relquery_test

import (
	"strings"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// lemma1Families returns the gadget workloads every strategy must
// reproduce exactly: the paper's worked example plus structured families
// from cnf.
func lemma1Families(t *testing.T) map[string]*cnf.Formula {
	t.Helper()
	// Family sizes are deliberately small: materializing φ_G(R_G) blows
	// up exponentially in m (that is the paper's theorem), so XorChain(2)
	// (m=8) and Pigeonhole(1) (m=10) are already thousands of
	// intermediate tuples — plenty for the greedy plan to blow up on while
	// keeping the race-instrumented run fast.
	families := map[string]*cnf.Formula{
		"paper": cnf.PaperExample(),
	}
	xor, err := cnf.XorChain(2, true)
	if err != nil {
		t.Fatal(err)
	}
	xor, _ = cnf.Compact(xor)
	families["xorchain"] = xor
	php, err := cnf.Pigeonhole(1)
	if err != nil {
		t.Fatal(err)
	}
	php, _ = cnf.Compact(php)
	families["pigeonhole"] = php
	return families
}

// renderAs renders r with its columns permuted into s's order. The
// generic join emits the join node's declared trs(φ) column order
// (left-to-right union), while the greedy binary plan's column order
// follows its pairing choices; the schemes are set-equal, so projecting
// onto a shared order makes renderings byte-comparable.
func renderAs(t *testing.T, r *relation.Relation, s relation.Scheme) string {
	t.Helper()
	p, err := r.Project(s)
	if err != nil {
		t.Fatal(err)
	}
	return relation.RenderSorted(p)
}

// wcojSpans collects every join span the generic join executed.
func wcojSpans(sp *obs.Span) []*obs.Span {
	if sp == nil {
		return nil
	}
	var out []*obs.Span
	if sp.Op == obs.OpJoin && sp.Algorithm == "wcoj" {
		out = append(out, sp)
	}
	for _, c := range sp.Children {
		out = append(out, wcojSpans(c)...)
	}
	return out
}

// TestWCOJKillsLemma1Blowup is the tentpole's acceptance test: on the
// Lemma 1 blow-up families the greedy binary plan materializes a peak
// intermediate far above the final output, while -join=wcoj never
// materializes more than the join node's own AGM bound — and still
// produces a byte-identical result.
func TestWCOJKillsLemma1Blowup(t *testing.T) {
	blowupFamilies := 0
	for name, g := range lemma1Families(t) {
		t.Run(name, func(t *testing.T) {
			c, err := reduction.New(g)
			if err != nil {
				t.Fatal(err)
			}
			phi, err := c.PhiG()
			if err != nil {
				t.Fatal(err)
			}
			db := c.Database()

			// Greedy binary reference, traced: establish the blow-up.
			refCol := &obs.Collector{}
			ref := algebra.Evaluator{Order: join.Greedy, Collector: refCol}
			want, err := ref.Eval(phi, db)
			if err != nil {
				t.Fatal(err)
			}
			greedyPeak := maxJoinRows(refCol.Trace().Root())

			// WCOJ evaluation, traced.
			col := &obs.Collector{}
			ev := algebra.Evaluator{Algorithm: join.Generic{}, Order: join.Greedy, Collector: col}
			got, err := ev.Eval(phi, db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("wcoj result differs from greedy hash plan (%d vs %d tuples)", got.Len(), want.Len())
			}
			if renderAs(t, got, want.Scheme()) != relation.RenderSorted(want) {
				t.Fatal("wcoj rendering not identical to sequential engine")
			}

			spans := wcojSpans(col.Trace().Root())
			if len(spans) == 0 {
				t.Fatal("forced wcoj evaluation produced no algorithm=wcoj join span")
			}
			for _, sp := range spans {
				if sp.AGMBound <= 0 {
					t.Errorf("wcoj span %q has no AGM bound", sp.Label)
					continue
				}
				// Worst-case optimality as the trace sees it: the generic
				// join's max materialization is its own output — no binary
				// intermediate — and the AGM bound dominates it.
				peak := sp.OutputRows
				if sp.MaxIntermediate > peak {
					peak = sp.MaxIntermediate
				}
				if float64(peak) > sp.AGMBound+1e-6 {
					t.Errorf("wcoj span %q materialized %d tuples, above its AGM bound %g",
						sp.Label, peak, sp.AGMBound)
				}
				if sp.Candidates == 0 || sp.Intersections == 0 {
					t.Errorf("wcoj span %q carries no search counters: candidates=%d intersections=%d",
						sp.Label, sp.Candidates, sp.Intersections)
				}
			}

			// The blow-up families demonstrate the fix: greedy's traced
			// peak exceeds the final output, wcoj's never does.
			if name != "paper" {
				if greedyPeak <= want.Len() {
					t.Fatalf("family lost its blow-up: greedy peak=%d, output=%d", greedyPeak, want.Len())
				}
				wcojPeak := maxJoinRows(col.Trace().Root())
				if wcojPeak > want.Len() {
					t.Errorf("wcoj materialized %d tuples, above the output %d", wcojPeak, want.Len())
				}
				if wcojPeak >= greedyPeak {
					t.Errorf("wcoj peak %d did not improve on greedy peak %d", wcojPeak, greedyPeak)
				}
				blowupFamilies++
			}
		})
	}
	if blowupFamilies < 2 {
		t.Fatalf("acceptance needs at least 2 blow-up families, exercised %d", blowupFamilies)
	}
}

// TestWCOJExplainAnalyzeAnnotations checks the rendered EXPLAIN ANALYZE
// advertises the generic join and its search counters.
func TestWCOJExplainAnalyzeAnnotations(t *testing.T) {
	c, err := reduction.New(lemma1Families(t)["xorchain"])
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	ev := algebra.Evaluator{Algorithm: join.Generic{}, Order: join.Greedy}
	text, err := algebra.ExplainAnalyzeWith(&ev, phi, c.Database())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alg=wcoj", "candidates=", "intersections=", "agm≤"} {
		if !strings.Contains(text, want) {
			t.Errorf("ExplainAnalyze output missing %q:\n%s", want, text)
		}
	}
}

// TestWCOJVariantParity runs the forced generic join on Theorem 4's R'_G
// construction (falsifiers plus the U column) with its φ₂ query, checking
// exact parity with the sequential hash engine on a second gadget shape.
func TestWCOJVariantParity(t *testing.T) {
	for name, g := range lemma1Families(t) {
		t.Run(name, func(t *testing.T) {
			c, err := reduction.NewVariant(g, reduction.WithFalsifiersAndU)
			if err != nil {
				t.Fatal(err)
			}
			phi, err := c.PhiGWithU()
			if err != nil {
				t.Fatal(err)
			}
			db := c.Database()
			ref := algebra.Evaluator{Order: join.Greedy}
			want, err := ref.Eval(phi, db)
			if err != nil {
				t.Fatal(err)
			}
			ev := algebra.Evaluator{Algorithm: join.Generic{}, Order: join.Greedy}
			got, err := ev.Eval(phi, db)
			if err != nil {
				t.Fatal(err)
			}
			if renderAs(t, got, want.Scheme()) != relation.RenderSorted(want) {
				t.Fatalf("R'_G: wcoj differs from hash engine (%d vs %d tuples)", got.Len(), want.Len())
			}
		})
	}
}

// TestAutoWCOJSelection checks the -join=auto policy: with AutoWCOJ set
// the evaluator switches exactly the blow-up-prone n-ary nodes to the
// generic join (visible as algorithm=wcoj in the trace), keeps the result
// identical, and without the flag never selects it.
func TestAutoWCOJSelection(t *testing.T) {
	c, err := reduction.New(lemma1Families(t)["xorchain"])
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	db := c.Database()

	ref := algebra.Evaluator{Order: join.Greedy}
	want, err := ref.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}

	col := &obs.Collector{}
	auto := algebra.Evaluator{Order: join.Greedy, AutoWCOJ: true, Collector: col}
	got, err := auto.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}
	if renderAs(t, got, want.Scheme()) != relation.RenderSorted(want) {
		t.Fatal("auto-wcoj result differs from default engine")
	}
	spans := wcojSpans(col.Trace().Root())
	if len(spans) == 0 {
		t.Fatal("AutoWCOJ did not select the generic join on a blow-up workload")
	}
	for _, sp := range spans {
		peak := sp.OutputRows
		if sp.MaxIntermediate > peak {
			peak = sp.MaxIntermediate
		}
		if float64(peak) > sp.AGMBound+1e-6 {
			t.Errorf("auto-selected wcoj span %q materialized %d > AGM bound %g", sp.Label, peak, sp.AGMBound)
		}
	}

	// Default evaluators must not silently switch: the blow-up stays
	// observable unless the caller opts in.
	defCol := &obs.Collector{}
	def := algebra.Evaluator{Order: join.Greedy, Collector: defCol}
	if _, err := def.Eval(phi, db); err != nil {
		t.Fatal(err)
	}
	if n := len(wcojSpans(defCol.Trace().Root())); n != 0 {
		t.Errorf("default evaluator ran %d wcoj spans without opting in", n)
	}
}

// TestProjectedGadgetPeakIsItsOutput: Proposition 1's π_Y(φ_G(R_G)) is one
// projected join node. Under wcoj it binds the Y columns first and looks
// for one witness per Y-tuple, so the join node's span peak — and the
// row count it reports — is the projection's size, not φ_G(R_G)'s; under
// auto the answer is the same. The answer is π_Y(R_G), plus u_G exactly
// when G is satisfiable.
func TestProjectedGadgetPeakIsItsOutput(t *testing.T) {
	for name, g := range lemma1Families(t) {
		c, err := reduction.New(g)
		if err != nil {
			t.Fatal(err)
		}
		phi, err := c.PhiG()
		if err != nil {
			t.Fatal(err)
		}
		full, err := algebra.Eval(phi, c.Database())
		if err != nil {
			t.Fatal(err)
		}
		want, err := full.Project(c.YScheme())
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() >= full.Len() {
			t.Fatalf("%s: π_Y keeps all %d rows of φ_G(R_G): no projection to show", name, full.Len())
		}
		py := algebra.MustProject(c.YScheme(), phi)
		for _, strategy := range []string{"wcoj", "auto"} {
			col := &obs.Collector{}
			ev := algebra.Evaluator{Collector: col}
			if err := ev.SetStrategy(strategy); err != nil {
				t.Fatal(err)
			}
			got, err := ev.Eval(py, c.Database())
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || !got.Scheme().SameOrder(c.YScheme()) {
				t.Fatalf("%s under %s: %d rows over %v, want the %d of π_Y(φ_G(R_G))", name, strategy, got.Len(), got.Scheme(), want.Len())
			}
			root := col.Trace().Root()
			if len(root.Children) != 1 || root.Children[0].Op != obs.OpJoin {
				t.Fatalf("%s under %s: the projection's child is not one join node: %+v", name, strategy, root.Children)
			}
			j := root.Children[0]
			if strategy == "wcoj" && (j.MaxIntermediate != got.Len() || j.OutputRows != got.Len()) {
				t.Errorf("%s: the projected wcoj node's peak is %d and its rows %d, want its output, %d (φ_G(R_G) has %d)",
					name, j.MaxIntermediate, j.OutputRows, got.Len(), full.Len())
			}
		}
	}
}
