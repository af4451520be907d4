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

// Explain evaluates the expression bottom-up and renders its operator tree
// with the actual cardinality of every node — the library's EXPLAIN
// ANALYZE. The tree makes the paper's phenomenon visible at a glance: on
// the gadget queries the join node's row count dwarfs both its inputs and
// the projection above it.
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
// algorithm, order).
func ExplainWith(ev *Evaluator, e Expr, db relation.Database) (string, error) {
	var b strings.Builder
	if _, err := explainNode(ev, e, db, &b, "", ""); err != nil {
		return "", err
	}
	return b.String(), nil
}

// explainNode renders one node and returns its materialized value.
func explainNode(ev *Evaluator, e Expr, db relation.Database, b *strings.Builder, prefix, childPrefix string) (*relation.Relation, error) {
	label := e.label()
	var children []Expr
	switch x := e.(type) {
	case *Project:
		children = []Expr{x.Of()}
	case *Join:
		children = x.Args()
	}

	// Evaluate children first (post-order), collecting their relations,
	// but print this node before its subtree for the usual EXPLAIN shape.
	// Two passes: compute sizes via a single evaluation of this node and
	// recursion for children.
	rel, err := ev.Eval(e, db)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b, "%s%-42s "+obs.FieldRows+"=%d\n", prefix, label, rel.Len())
	for i, c := range children {
		connector, nextIndent := "├─ ", "│  "
		if i == len(children)-1 {
			connector, nextIndent = "└─ ", "   "
		}
		if _, err := explainNode(ev, c, db, b, childPrefix+connector, childPrefix+nextIndent); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// ExplainAnalyze evaluates the expression once under a tracing collector
// and renders the executed operator tree annotated with observed
// statistics: per-node cardinality, scheme width, wall time, join
// algorithm and worker count, cache status, and — for join nodes — the
// AGM worst-case size bound next to the observed size. On the paper's
// gadget queries the join node's rows dwarf the tree above and below it,
// and the AGM column shows how close the blow-up sits to the theoretical
// ceiling:
//
//	pi[A C]                                   rows=4 width=2 wall=41µs
//	└─ * (natural join, 2 inputs)             rows=5 width=3 wall=28µs in=[3 3] alg=hash agm≤9
//	   ├─ pi[A B]                             rows=3 width=2 wall=12µs in=[3]
//	   │  └─ T                                rows=3 width=3 wall=1µs
//	   └─ pi[B C]                             rows=3 width=2 wall=9µs in=[3]
//	      └─ T                                rows=3 width=3 wall=1µs
//
// Unlike Explain — which re-evaluates every subtree and renders the
// syntactic tree — ExplainAnalyze evaluates the query exactly once and
// renders what actually executed: a subtree served from a cache appears
// as a single node marked cache=hit with no children. An n-ary join node
// whose intermediate binary joins grew past its final output also shows
// peak=N, the paper's blow-up number for that node.
func ExplainAnalyze(e Expr, db relation.Database) (string, error) {
	ev := Evaluator{}
	return ExplainAnalyzeWith(&ev, e, db)
}

// ExplainAnalyzeWith is ExplainAnalyze under a caller-configured
// evaluator (budget, join algorithm, order, parallelism, caching). The
// evaluator's Collector is replaced for the duration of the call.
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
	saved := ev.Collector
	c := &obs.Collector{}
	ev.Collector = c
	_, err := ev.EvalContext(ctx, e, db)
	ev.Collector = saved
	if err != nil {
		if t := governor.TraceOf(err); t != nil {
			return RenderTrace(t), err
		}
		return "", err
	}
	return RenderTrace(c.Trace()), nil
}

// RenderTrace renders a trace's span tree in the EXPLAIN ANALYZE text
// format (see ExplainAnalyze). Every root span gets its own tree.
func RenderTrace(t *obs.Trace) string {
	var b strings.Builder
	if t == nil {
		return ""
	}
	for _, root := range t.Roots {
		renderSpan(&b, root, "", "")
	}
	// Governance footer, only when the governor actually intervened —
	// clean evaluations keep the classic tree-only output.
	if m := t.Metrics; m.ViolationsTotal()+m.DegradedEvals > 0 {
		b.WriteString("governor: violations")
		for _, vc := range m.ViolationCounts() {
			fmt.Fprintf(&b, " %s=%d", vc.Kind, vc.Count)
		}
		fmt.Fprintf(&b, " "+obs.FieldDegraded+"=%d\n", m.DegradedEvals)
	}
	return b.String()
}

// renderSpan renders one span and recurses over its children.
func renderSpan(b *strings.Builder, sp *obs.Span, prefix, childPrefix string) {
	if sp == nil {
		return
	}
	fmt.Fprintf(b, "%s%-42s "+obs.FieldRows+"=%d "+obs.FieldWidth+"=%d "+obs.FieldWall+"=%s",
		prefix, sp.Label, sp.OutputRows, sp.SchemeWidth,
		sp.Wall().Round(time.Microsecond))
	if len(sp.InputRows) > 0 {
		fmt.Fprintf(b, " "+obs.FieldInputs+"=%v", sp.InputRows)
	}
	if sp.Algorithm != "" {
		fmt.Fprintf(b, " "+obs.FieldAlg+"=%s", sp.Algorithm)
	}
	if sp.Workers > 0 {
		fmt.Fprintf(b, " "+obs.FieldWorkers+"=%d", sp.Workers)
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
	if sp.Degraded {
		b.WriteString(" " + obs.FieldDegraded)
	}
	if sp.Err != "" {
		fmt.Fprintf(b, " "+obs.FieldError+"=%q", sp.Err)
	}
	b.WriteByte('\n')
	for i, c := range sp.Children {
		connector, nextIndent := "├─ ", "│  "
		if i == len(sp.Children)-1 {
			connector, nextIndent = "└─ ", "   "
		}
		renderSpan(b, c, childPrefix+connector, childPrefix+nextIndent)
	}
}
