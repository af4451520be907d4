package algebra

import (
	"context"
	"fmt"
	"strings"
	"time"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// Explain evaluates the expression once and renders its operator tree
// with the actual cardinality of every node. The tree makes the paper's
// phenomenon visible at a glance: on the gadget queries the join node's row
// count dwarfs both its inputs and the projection above it.
//
//	pi[A C]                                   rows=4
//	└─ *                                      rows=5
//	   ├─ pi[A B](T)                          rows=3
//	   └─ pi[B C](T)                          rows=3
//
// Explain materializes every node with the Evaluator's defaults; use a
// budgeted Evaluator and ExplainWith when the query may blow up.
func Explain(e Expr, db relation.Database) (string, error) {
	ev := Evaluator{}
	return ExplainWith(&ev, e, db)
}

// ExplainWith is Explain under a caller-configured evaluator (budget, join
// algorithm, order). It is ExplainAnalyze reduced to label and rows=, with
// the call's caches off so that every node executes and the span tree is
// the syntactic tree.
func ExplainWith(ev *Evaluator, e Expr, db relation.Database) (string, error) {
	call := *ev
	call.Cache, call.SharedCache = false, nil
	t, err := call.traced(context.Background(), e, db)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	renderSpan(&b, t.Root(), "", "", false)
	return b.String(), nil
}

// traced evaluates e under a fresh collector, leaving ev's own untouched,
// and returns the trace of what executed. On a governor violation the trace
// is the partial span tree executed up to the abort.
func (ev *Evaluator) traced(ctx context.Context, e Expr, db relation.Database) (*obs.Trace, error) {
	call := *ev
	call.Collector = &obs.Collector{}
	if _, err := call.EvalContext(ctx, e, db); err != nil {
		return governor.TraceOf(err), err
	}
	return call.Collector.Trace(), nil
}

// ExplainAnalyze evaluates the expression once under a tracing collector
// and renders the executed operator tree annotated with observed
// statistics: per-node cardinality, scheme width, wall time, join
// algorithm, cache status, and — for join nodes — the
// AGM worst-case size bound next to the observed size. On the paper's
// gadget queries the join node's rows dwarf the tree above and below it,
// and the AGM column shows how close the blow-up sits to the theoretical
// ceiling:
//
//	pi[A C]                                   rows=4 width=2 wall=41µs
//	└─ * (natural join, 2 inputs)             rows=4 width=2 wall=28µs in=[3 3] alg=hash peak=5 agm≤9
//	   ├─ pi[A B]                             rows=3 width=2 wall=12µs in=[3]
//	   │  └─ T                                rows=3 width=3 wall=1µs
//	   └─ pi[B C]                             rows=3 width=2 wall=9µs in=[3]
//	      └─ T                                rows=3 width=3 wall=1µs
//
// Unlike Explain, which turns the caches off to render the syntactic tree,
// ExplainAnalyze renders what executed under the evaluator as configured: a
// subtree served from a cache appears as a single node marked cache=hit
// with no children. An n-ary join node
// whose intermediate binary joins grew past its final output also shows
// peak=N, the paper's blow-up number for that node.
func ExplainAnalyze(e Expr, db relation.Database) (string, error) {
	ev := Evaluator{}
	return ExplainAnalyzeWith(&ev, e, db)
}

// ExplainAnalyzeWith is ExplainAnalyze under a caller-configured
// evaluator (budget, join algorithm, order, caching). The
// call traces into a collector of its own, not the evaluator's.
//
// When evaluation dies on a resource-governor violation (deadline, row
// or memory budget, cancellation), the error is returned together with
// the partial span tree executed up to the abort: the span carrying the
// violation is annotated error=..., so the rendering shows exactly
// where the budget died. Callers distinguish the two outcomes by the
// error value — a non-empty string with a non-nil error is a partial
// trace, not a completed plan.
func ExplainAnalyzeWith(ev *Evaluator, e Expr, db relation.Database) (string, error) {
	return ExplainAnalyzeContext(context.Background(), ev, e, db)
}

// ExplainAnalyzeContext is ExplainAnalyzeWith under a caller context, so
// EXPLAIN ANALYZE itself honors deadlines and cancellation. On a
// governor violation it returns the partial span tree alongside the
// error (see ExplainAnalyzeWith).
func ExplainAnalyzeContext(ctx context.Context, ev *Evaluator, e Expr, db relation.Database) (string, error) {
	t, err := ev.traced(ctx, e, db)
	return RenderTrace(t), err
}

// RenderTrace renders a trace's span tree in the EXPLAIN ANALYZE text
// format (see ExplainAnalyze). Every root span gets its own tree.
func RenderTrace(t *obs.Trace) string {
	var b strings.Builder
	if t == nil {
		return ""
	}
	for _, root := range t.Roots {
		renderSpan(&b, root, "", "", true)
	}
	// Governance footer, only when the governor actually intervened —
	// clean evaluations keep the classic tree-only output.
	if m := t.Metrics; m.ViolationsTotal() > 0 {
		b.WriteString("governor: violations")
		for _, vc := range m.ViolationCounts() {
			fmt.Fprintf(&b, " %s=%d", vc.Kind, vc.Count)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderSpan renders one span — label and rows=, plus the observed
// statistics when analyze is set — and recurses over its children.
func renderSpan(b *strings.Builder, sp *obs.Span, prefix, childPrefix string, analyze bool) {
	if sp == nil {
		return
	}
	fmt.Fprintf(b, "%s%-42s "+obs.FieldRows+"=%d", prefix, sp.Label, sp.OutputRows)
	if analyze {
		renderStats(b, sp)
	}
	b.WriteByte('\n')
	for i, c := range sp.Children {
		connector, nextIndent := "├─ ", "│  "
		if i == len(sp.Children)-1 {
			connector, nextIndent = "└─ ", "   "
		}
		renderSpan(b, c, childPrefix+connector, childPrefix+nextIndent, analyze)
	}
}

// renderStats appends a span's EXPLAIN ANALYZE annotations to its line.
func renderStats(b *strings.Builder, sp *obs.Span) {
	fmt.Fprintf(b, " "+obs.FieldWidth+"=%d "+obs.FieldWall+"=%s", sp.SchemeWidth, sp.Wall().Round(time.Microsecond))
	if len(sp.InputRows) > 0 {
		fmt.Fprintf(b, " "+obs.FieldInputs+"=%v", sp.InputRows)
	}
	if sp.Algorithm != "" {
		fmt.Fprintf(b, " "+obs.FieldAlg+"=%s", sp.Algorithm)
	}
	if sp.Structure != "" {
		fmt.Fprintf(b, " "+obs.FieldStructure+"=%s", sp.Structure)
	}
	if sp.Candidates > 0 || sp.Intersections > 0 {
		fmt.Fprintf(b, " "+obs.FieldCandidates+"=%d "+obs.FieldIntersections+"=%d", sp.Candidates, sp.Intersections)
	}
	if sp.Semijoins > 0 {
		fmt.Fprintf(b, " "+obs.FieldSemijoins+"=%d "+obs.FieldReduced+"=%d", sp.Semijoins, sp.ReducedRows)
	}
	if sp.MaxIntermediate > sp.OutputRows {
		fmt.Fprintf(b, " "+obs.FieldPeak+"=%d", sp.MaxIntermediate)
	}
	if sp.AGMBound > 0 {
		fmt.Fprintf(b, " "+obs.FieldAGM+"≤%.4g", sp.AGMBound)
	}
	if sp.Cache != "" {
		fmt.Fprintf(b, " "+obs.FieldCache+"=%s", sp.Cache)
	}
	if sp.Err != "" {
		fmt.Fprintf(b, " "+obs.FieldError+"=%q", sp.Err)
	}
}
