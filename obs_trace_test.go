package relquery_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
)

// maxJoinRows walks a span tree and returns the largest cardinality any
// join span materialized (its output or an intermediate binary join
// inside it) — the trace's view of the paper's max-intermediate number.
func maxJoinRows(sp *obs.Span) int {
	if sp == nil {
		return 0
	}
	best := 0
	if sp.Op == obs.OpJoin {
		best = sp.OutputRows
		if sp.MaxIntermediate > best {
			best = sp.MaxIntermediate
		}
	}
	for _, c := range sp.Children {
		if m := maxJoinRows(c); m > best {
			best = m
		}
	}
	return best
}

// TestExplainAnalyzeOnGadgets runs EXPLAIN ANALYZE over φ_G(R_G) for each
// Lemma 1 gadget family and checks that the trace exposes the paper's
// phenomenon: the join node's observed cardinality dwarfs both the input
// R_G and the final result (which Lemma 1 pins to |R_G ∪ R̃_G|), the
// node carries a positive AGM bound dominating its observed size, and the
// traced cardinalities agree exactly with the untraced sequential engine.
func TestExplainAnalyzeOnGadgets(t *testing.T) {
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

			// Untraced sequential reference.
			ref := algebra.Evaluator{Order: join.Greedy}
			want, err := ref.Eval(phi, db)
			if err != nil {
				t.Fatal(err)
			}

			// Traced evaluation.
			col := &obs.Collector{}
			ev := algebra.Evaluator{Order: join.Greedy, Collector: col}
			got, err := ev.Eval(phi, db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatal("tracing changed the result")
			}

			root := col.Trace().Root()
			if root == nil {
				t.Fatal("no trace collected")
			}
			if root.OutputRows != want.Len() {
				t.Errorf("root span rows=%d, result has %d", root.OutputRows, want.Len())
			}

			// The trace's blow-up equals the metrics snapshot's: spans and
			// counters are two views of the same evaluation.
			traceMax := maxJoinRows(root)
			snap := col.Metrics.Snapshot()
			if traceMax != int(snap.MaxIntermediate) {
				t.Errorf("trace max join rows=%d, metrics MaxIntermediate=%d", traceMax, snap.MaxIntermediate)
			}

			// The paper's phenomenon, visible in the trace: some join node
			// materializes more than the input — and on the non-trivial
			// families (the worked example is too small to blow up) far more
			// than input and output both.
			if traceMax <= c.R.Len() {
				t.Errorf("no blow-up in trace: max join rows=%d, input=%d", traceMax, c.R.Len())
			}
			blowup := name != "paper"
			if blowup && traceMax <= want.Len() {
				t.Errorf("expected intermediate above the output: max join rows=%d, output=%d",
					traceMax, want.Len())
			}

			// Every join span's AGM bound dominates its observed output.
			var checkAGM func(sp *obs.Span)
			checkAGM = func(sp *obs.Span) {
				if sp.Op == obs.OpJoin {
					if sp.AGMBound <= 0 {
						t.Errorf("join span %q has no AGM bound", sp.Label)
					} else if float64(sp.OutputRows) > sp.AGMBound+1e-6 {
						t.Errorf("join span %q: rows=%d exceeds AGM bound %g",
							sp.Label, sp.OutputRows, sp.AGMBound)
					}
				}
				for _, ch := range sp.Children {
					checkAGM(ch)
				}
			}
			checkAGM(root)

			// The rendering carries every promised annotation: cardinality,
			// width, wall time, algorithm, AGM bound and (with caching on)
			// per-node cache status.
			text, err := algebra.ExplainAnalyzeWith(&algebra.Evaluator{Order: join.Greedy, Cache: true}, phi, db)
			if err != nil {
				t.Fatal(err)
			}
			annotations := []string{"rows=", "width=", "wall=", "alg=", "agm≤", "cache="}
			if blowup {
				// The blow-up node must advertise its peak intermediate.
				annotations = append(annotations, "peak=")
			}
			for _, want := range annotations {
				if !bytes.Contains([]byte(text), []byte(want)) {
					t.Errorf("ExplainAnalyze output missing %q:\n%s", want, text)
				}
			}
		})
	}
}

// TestTraceJSONRoundTrip writes a gadget evaluation's trace as JSON and
// parses it back, checking the -trace payload is well-formed and carries
// the span tree and metrics.
func TestTraceJSONRoundTrip(t *testing.T) {
	c, err := reduction.New(lemma1Families(t)["paper"])
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	col := &obs.Collector{}
	ev := algebra.Evaluator{Order: join.Greedy, Collector: col}
	if _, err := ev.Eval(phi, c.Database()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := col.Trace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded obs.Trace
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(decoded.Roots) != 1 {
		t.Fatalf("decoded %d roots, want 1", len(decoded.Roots))
	}
	if decoded.Roots[0].OutputRows != col.Trace().Root().OutputRows {
		t.Error("root cardinality lost in JSON round trip")
	}
	if decoded.Metrics.Joins == 0 {
		t.Error("metrics lost in JSON round trip")
	}
}
