package relquery_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// xorchain2Gadget builds the Lemma 1 gadget for the xorchain(2) formula —
// the paper's blow-up workload: φ_G(R_G) materializes thousands of
// intermediate rows under the greedy binary planner while input and
// output stay at a few dozen.
func xorchain2Gadget(t *testing.T) (algebra.Expr, relation.Database, *relation.Relation) {
	t.Helper()
	g, err := cnf.XorChain(2, true)
	if err != nil {
		t.Fatal(err)
	}
	g, _ = cnf.Compact(g)
	c, err := reduction.New(g)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ExpectedPhiResult()
	if err != nil {
		t.Fatal(err)
	}
	return phi, c.Database(), want
}

// TestXorChain2GovernorAcceptance is the end-to-end acceptance check for
// the resource governor on the paper's own hard case. With an
// intermediate-row budget strictly between the gadget's output size and
// the greedy planner's peak, the same query is:
//
//   - rejected pre-flight (governor.ErrAdmission) when admission control
//     is on and the node runs on the greedy binary planner,
//   - killed mid-flight with governor.ErrRowBudget — carrying the partial
//     span tree — when admission is overridden, and
//   - completed by the worst-case-optimal join under the identical
//     budget, because its peak is bounded by its own output.
func TestXorChain2GovernorAcceptance(t *testing.T) {
	phi, db, want := xorchain2Gadget(t)

	// Measure the ungoverned greedy peak; the budget sits strictly
	// between the final output and that peak.
	col := &obs.Collector{}
	ev := algebra.Evaluator{Order: join.Greedy, Collector: col}
	out, err := ev.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want) {
		t.Fatal("ungoverned evaluation violates Lemma 1")
	}
	peak := int(col.Metrics.Snapshot().MaxIntermediate)
	if peak != 3247 {
		t.Fatalf("greedy peak intermediate = %d rows, want the documented 3247", peak)
	}
	budget := peak / 3
	if budget <= out.Len() {
		t.Fatalf("budget %d does not separate output (%d rows) from peak (%d rows)", budget, out.Len(), peak)
	}

	t.Run("admission-rejects-greedy", func(t *testing.T) {
		col := &obs.Collector{}
		ev := algebra.Evaluator{
			Order:     join.Greedy,
			Admit:     true,
			Collector: col,
			Limits:    governor.Limits{MaxIntermediateRows: budget},
		}
		_, err := ev.Eval(phi, db)
		if !errors.Is(err, governor.ErrAdmission) {
			t.Fatalf("want governor.ErrAdmission, got %v", err)
		}
		// Pre-flight means the join itself never ran: φ_G's projection
		// legs are evaluated as operands before the join node's admission
		// gate, so a few dozen projected rows are observed — but no binary
		// join executed and nothing near the greedy blow-up materialized.
		snap := col.Metrics.Snapshot()
		if snap.Joins != 0 {
			t.Fatalf("rejection must be pre-flight, but %d binary joins ran", snap.Joins)
		}
		if int(snap.MaxIntermediate) >= budget {
			t.Fatalf("rejection materialized %d intermediate rows, at or above the %d budget", snap.MaxIntermediate, budget)
		}
	})

	t.Run("override-killed-mid-flight", func(t *testing.T) {
		col := &obs.Collector{}
		ev := algebra.Evaluator{
			Order:     join.Greedy,
			Admit:     false, // the override: run anyway, rely on mid-flight checkpoints
			Collector: col,
			Limits:    governor.Limits{MaxIntermediateRows: budget},
		}
		_, err := ev.Eval(phi, db)
		if !errors.Is(err, governor.ErrRowBudget) {
			t.Fatalf("want governor.ErrRowBudget, got %v", err)
		}
		trace := governor.TraceOf(err)
		if trace == nil {
			t.Fatal("row-budget kill must carry the partial span tree")
		}
		render := algebra.RenderTrace(trace)
		if !strings.Contains(render, "error=") {
			t.Fatalf("partial trace does not annotate the dying span:\n%s", render)
		}
	})

	t.Run("wcoj-completes-under-budget", func(t *testing.T) {
		ev := algebra.Evaluator{
			Order:     join.Greedy,
			Algorithm: join.Generic{},
			Admit:     true, // always admitted: the wcoj peak is output-bounded
			Limits:    governor.Limits{MaxIntermediateRows: budget},
		}
		got, err := ev.Eval(phi, db)
		if err != nil {
			t.Fatalf("wcoj must complete under the budget that kills greedy: %v", err)
		}
		if !got.Equal(want) {
			t.Fatal("wcoj result under budget violates Lemma 1")
		}
	})
}

// TestXorChain2ExplainAnalyzePartialTrace verifies the EXPLAIN ANALYZE
// side of the acceptance criteria: a budget-killed greedy evaluation
// returns a non-empty partial plan rendering alongside the typed error,
// and the wcoj evaluation renders a complete plan under the same budget.
func TestXorChain2ExplainAnalyzePartialTrace(t *testing.T) {
	phi, db, _ := xorchain2Gadget(t)
	limits := governor.Limits{MaxIntermediateRows: 1000}

	ev := algebra.Evaluator{Order: join.Greedy, Limits: limits}
	render, err := algebra.ExplainAnalyzeWith(&ev, phi, db)
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Fatalf("want governor.ErrRowBudget from EXPLAIN ANALYZE, got %v", err)
	}
	if render == "" {
		t.Fatal("EXPLAIN ANALYZE returned no partial plan for the killed evaluation")
	}
	if !strings.Contains(render, "error=") {
		t.Fatalf("partial plan does not show where the budget died:\n%s", render)
	}

	evW := algebra.Evaluator{Order: join.Greedy, Algorithm: join.Generic{}, Limits: limits}
	render, err = algebra.ExplainAnalyzeWith(&evW, phi, db)
	if err != nil {
		t.Fatalf("wcoj EXPLAIN ANALYZE failed under budget: %v", err)
	}
	if !strings.Contains(render, "alg=wcoj") {
		t.Fatalf("completed plan does not record the wcoj strategy:\n%s", render)
	}
}

// TestXorChain2DeadlineKill puts an already-expired deadline on the
// gadget evaluation: every strategy must die with governor.ErrDeadline
// before materializing anything.
func TestXorChain2DeadlineKill(t *testing.T) {
	phi, db, _ := xorchain2Gadget(t)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	for _, tc := range []struct {
		name string
		ev   algebra.Evaluator
	}{
		{"greedy", algebra.Evaluator{Order: join.Greedy}},
		{"wcoj", algebra.Evaluator{Order: join.Greedy, Algorithm: join.Generic{}}},
		{"yannakakis", algebra.Evaluator{Order: join.Greedy, Algorithm: join.Yannakakis{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := &obs.Collector{}
			tc.ev.Collector = col
			_, err := tc.ev.EvalContext(ctx, phi, db)
			if !errors.Is(err, governor.ErrDeadline) {
				t.Fatalf("want governor.ErrDeadline, got %v", err)
			}
			if snap := col.Metrics.Snapshot(); snap.MaxIntermediate != 0 {
				t.Fatalf("expired deadline still materialized %d intermediate rows", snap.MaxIntermediate)
			}
		})
	}
}
