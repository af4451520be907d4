package relquery_test

import (
	"bytes"
	"strings"
	"testing"

	"relquery"
)

// TestFacadeEndToEnd drives the public API exactly as the README's
// quickstart does: relations, parsing, evaluation, the paper's gadget, and
// the atlas routes.
func TestFacadeEndToEnd(t *testing.T) {
	r, err := relquery.FromRows(relquery.MustScheme("A", "B", "C"),
		[]string{"1", "x", "p"},
		[]string{"2", "x", "q"},
	)
	if err != nil {
		t.Fatal(err)
	}
	db := relquery.SingleRelation("T", r)
	e, err := relquery.ParseExprForDatabase("pi[A C](pi[A B](T) * pi[B C](T))", db)
	if err != nil {
		t.Fatal(err)
	}
	out, err := relquery.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // both A values pair with both C values through B=x
		t.Errorf("eval = %d tuples, want 4", out.Len())
	}

	// The generic join agrees.
	ev := relquery.Evaluator{}
	if err := ev.SetStrategy("wcoj"); err != nil {
		t.Fatal(err)
	}
	out2, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(out2) {
		t.Error("the generic join disagrees with the hash join")
	}

	// Decision procedures.
	cmp, err := relquery.ResultEquals(e, db, out, relquery.DecisionBudget{})
	if err != nil || !cmp.Holds {
		t.Errorf("ResultEquals: %+v %v", cmp, err)
	}
	n, err := relquery.CountResult(e, db, relquery.DecisionBudget{})
	if err != nil || n != 4 {
		t.Errorf("CountResult = %d, %v", n, err)
	}
}

func TestFacadePaperPipeline(t *testing.T) {
	g := relquery.PaperExample()
	c, err := relquery.NewConstruction(g)
	if err != nil {
		t.Fatal(err)
	}
	if c.R.Len() != 22 {
		t.Errorf("|R_G| = %d", c.R.Len())
	}
	if err := relquery.VerifyLemma1(g); err != nil {
		t.Error(err)
	}
	res, err := relquery.SATViaMembership(g)
	if err != nil || !res.Answer {
		t.Errorf("SATViaMembership: %+v %v", res, err)
	}
	count, err := relquery.CountModelsViaQuery(g)
	if err != nil || count != 20 {
		t.Errorf("CountModelsViaQuery = %d, %v (paper example has 20 models)", count, err)
	}
}

func TestFacadeCNFRoundTrip(t *testing.T) {
	g, err := relquery.ParseCNF("(x1 + ~x2 + x3)(x2 + x3 + x4)(~x1 + ~x3 + ~x4)")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := relquery.WriteDIMACS(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := relquery.ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != g.String() {
		t.Errorf("round trip changed formula: %v", back)
	}
	sat, model, err := relquery.Satisfiable(g)
	if err != nil || !sat || !g.Eval(model) {
		t.Errorf("Satisfiable: %v %v %v", sat, model, err)
	}
}

func TestFacadeExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := relquery.RunExperiments([]string{"E0"}, &buf, 1, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "22 rows") {
		t.Errorf("E0 output:\n%s", buf.String())
	}
}

func TestFacadeRelationCodec(t *testing.T) {
	r, err := relquery.FromRows(relquery.MustScheme("A", "B"), []string{"1", "2"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := relquery.WriteRelation(&buf, "R", r); err != nil {
		t.Fatal(err)
	}
	db, err := relquery.ReadDatabase(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	back, err := db.Get("R")
	if err != nil || !back.Equal(r) {
		t.Errorf("codec round trip: %v %v", back, err)
	}
}
