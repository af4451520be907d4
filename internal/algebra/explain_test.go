package algebra

import (
	"strings"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

func TestExplainShape(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q", "2 y q")
	db := relation.Single("T", r)
	e, err := ParseForDatabase("pi[A C](pi[A B](T) * pi[B C](T))", db)
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluator{Registry: obs.NewRegistry()}
	out, err := ExplainWith(&ev, e, db)
	if err != nil {
		t.Fatal(err)
	}
	// One evaluation renders all six nodes: the join ran once, not once per
	// ancestor.
	if snap := ev.Registry.Snapshot(); snap.Evals != 1 || snap.Metrics.Joins != 1 {
		t.Errorf("Explain ran %d evaluations and %d joins, want 1 and 1", snap.Evals, snap.Metrics.Joins)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // pi, join, pi, T, pi, T
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "pi[A C]") || !strings.Contains(lines[0], "rows=") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "natural join") {
		t.Errorf("join line = %q", lines[1])
	}
	// The join under the projection is one projected join node: its count
	// is the projection's (4), not the full join's (5).
	if !strings.Contains(lines[0], "rows=4") || !strings.Contains(lines[1], "rows=4") {
		t.Errorf("row counts wrong:\n%s", out)
	}
	// Tree connectors present.
	if !strings.Contains(out, "├─") || !strings.Contains(out, "└─") {
		t.Errorf("missing connectors:\n%s", out)
	}
}

// TestExplainAnalyzeProjectedJoinWidth: a projected join node writes only
// the projection's columns, so EXPLAIN ANALYZE gives its span the
// projection's width (2), not the full join's (3), under every strategy.
func TestExplainAnalyzeProjectedJoinWidth(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q", "2 y q")
	db := relation.Single("T", r)
	e, err := ParseForDatabase("pi[A C](pi[A B](T) * pi[B C](T))", db)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []string{"hash", "wcoj", "yannakakis"} {
		var ev Evaluator
		if err := ev.SetStrategy(strategy); err != nil {
			t.Fatal(err)
		}
		out, err := ExplainAnalyzeWith(&ev, e, db)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(out, "\n")
		if !strings.Contains(lines[1], "natural join") || !strings.Contains(lines[1], "width=2 ") {
			t.Errorf("%s: the projected join's line is not width=2:\n%s", strategy, out)
		}
	}
}

func TestExplainOperandOnly(t *testing.T) {
	r := mkrel(t, "A", "1", "2")
	db := relation.Single("T", r)
	e, err := ParseForDatabase("T", db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Explain(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "T") || !strings.Contains(out, "rows=2") {
		t.Errorf("Explain = %q", out)
	}
}

func TestExplainPropagatesErrors(t *testing.T) {
	e := MustOperand("Missing", relation.MustScheme("A"))
	if _, err := Explain(e, relation.NewDatabase()); err == nil {
		t.Error("missing operand accepted")
	}
}

func TestExplainWithBudget(t *testing.T) {
	db := relation.NewDatabase()
	db.Put("L", mkrel(t, "A", "1", "2", "3"))
	db.Put("R", mkrel(t, "B", "1", "2", "3"))
	e := MustJoin(
		MustOperand("L", relation.MustScheme("A")),
		MustOperand("R", relation.MustScheme("B")),
	)
	ev := Evaluator{Limits: governor.Limits{MaxIntermediateRows: 2}}
	if _, err := ExplainWith(&ev, e, db); err == nil {
		t.Error("budget violation not propagated")
	}
}
