package algebra

import (
	"errors"
	"strings"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
)

// TestEvaluatorRegistry: an attached registry sees each evaluation —
// latency always, metrics and the span tree when a collector rides
// along.
func TestEvaluatorRegistry(t *testing.T) {
	e, db := chainQuery(t)
	reg := obs.NewRegistry()
	col := &obs.Collector{}
	ev := Evaluator{Collector: col, Registry: reg}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if s.Evals != 1 {
		t.Fatalf("Evals = %d, want 1", s.Evals)
	}
	if s.Metrics.Joins != 1 {
		t.Errorf("registry Joins = %d, want 1", s.Metrics.Joins)
	}
	if s.Latency.Count != 1 {
		t.Errorf("Latency.Count = %d, want 1", s.Latency.Count)
	}
	if s.PeakRows.Count != 1 {
		t.Errorf("PeakRows.Count = %d, want 1", s.PeakRows.Count)
	}
	// chainQuery's join peaks at 3 rows under AGM bound 6: ratio 0.5.
	if s.AGMRatio.Count != 1 || s.AGMRatio.Sum != 0.5 {
		t.Errorf("AGMRatio count=%d sum=%g, want 1/0.5", s.AGMRatio.Count, s.AGMRatio.Sum)
	}
	if s.TracesHeld != 1 {
		t.Errorf("TracesHeld = %d, want 1", s.TracesHeld)
	}

	// A second evaluation folds on top.
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	if s := reg.Snapshot(); s.Evals != 2 || s.Metrics.Joins != 3 {
		// The collector is reused, so its cumulative snapshot (2 joins)
		// folds in on top of the first (1 join).
		t.Errorf("after second eval: evals=%d joins=%d, want 2/3", s.Evals, s.Metrics.Joins)
	}
}

// TestEvaluatorRegistryWithoutCollector: a registry alone (no collector)
// still counts evaluations and latency — the trace-dependent histograms
// stay empty.
func TestEvaluatorRegistryWithoutCollector(t *testing.T) {
	e, db := chainQuery(t)
	reg := obs.NewRegistry()
	ev := Evaluator{Registry: reg}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if s.Evals != 1 || s.Latency.Count != 1 {
		t.Errorf("evals=%d latency count=%d, want 1/1", s.Evals, s.Latency.Count)
	}
	if s.PeakRows.Count != 0 || s.TracesHeld != 0 {
		t.Errorf("collector-less eval contributed traces: %+v", s)
	}
}

// TestEvaluatorRegistryObservesViolation: a governed evaluation that
// trips its budget still reaches the registry — with the violation
// counted by sentinel — so /metrics shows failures, not only successes.
func TestEvaluatorRegistryObservesViolation(t *testing.T) {
	e, db := chainQuery(t)
	reg := obs.NewRegistry()
	col := &obs.Collector{}
	ev := Evaluator{
		Collector: col,
		Registry:  reg,
		Limits:    governor.Limits{MaxIntermediateRows: 1},
	}
	_, err := ev.Eval(e, db)
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Fatalf("err = %v, want ErrRowBudget", err)
	}
	s := reg.Snapshot()
	if s.Evals != 1 {
		t.Fatalf("Evals = %d, want 1 (failed evaluations count)", s.Evals)
	}
	if s.Metrics.ViolationsRowBudget != 1 {
		t.Errorf("ViolationsRowBudget = %d, want 1", s.Metrics.ViolationsRowBudget)
	}
	if s.TracesHeld != 1 {
		t.Errorf("TracesHeld = %d, want 1 (partial trace of the death)", s.TracesHeld)
	}
}

// TestRenderTraceGovernorFooter: the footer appears only when the
// governor intervened, so clean EXPLAIN ANALYZE output is unchanged.
func TestRenderTraceGovernorFooter(t *testing.T) {
	e, db := chainQuery(t)
	col := &obs.Collector{}
	ev := Evaluator{Collector: col}
	if _, err := ev.Eval(e, db); err != nil {
		t.Fatal(err)
	}
	if clean := RenderTrace(col.Trace()); strings.Contains(clean, "governor:") {
		t.Fatalf("clean trace grew a governor footer:\n%s", clean)
	}

	col2 := &obs.Collector{}
	ev2 := Evaluator{Collector: col2, Limits: governor.Limits{MaxIntermediateRows: 1}}
	_, err := ev2.Eval(e, db)
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Fatalf("err = %v, want ErrRowBudget", err)
	}
	render := RenderTrace(col2.Trace())
	if !strings.Contains(render, "governor: violations") ||
		!strings.Contains(render, "row_budget=1") ||
		!strings.HasSuffix(render, " admission=0\n") {
		t.Fatalf("violation trace missing governor footer:\n%s", render)
	}
}
