package relquery_test

import (
	"bytes"
	"math/rand"
	"testing"

	"relquery"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/decide"
	"relquery/internal/join"
	"relquery/internal/qbf"
	"relquery/internal/reduction"
	"relquery/internal/relation"
	"relquery/internal/sat"
)

// TestGrandTour drives a full pipeline end to end for a batch of random
// formulas: build the gadget, serialize and reload it through the text
// codec, evaluate φ_G with the generic join, and decide every catalogued
// problem on it, cross-checking each against the direct solvers.
func TestGrandTour(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 6; trial++ {
		var g *cnf.Formula
		var err error
		if trial%2 == 0 {
			g, _, err = cnf.PlantedSatisfiable3CNF(rng, 4+rng.Intn(2), 3+rng.Intn(2))
		} else {
			g, err = cnf.Unsatisfiable3CNF(rng, 3, 8)
		}
		if err != nil {
			t.Fatal(err)
		}
		g, _ = cnf.Compact(g)
		grandTour(t, rng, g)
	}
}

func grandTour(t *testing.T, rng *rand.Rand, g *cnf.Formula) {
	t.Helper()

	// 1. Build the gadget and round-trip it through the codec.
	c, err := reduction.New(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := relation.WriteRelation(&buf, c.OperandName(), c.R); err != nil {
		t.Fatal(err)
	}
	db, err := relation.ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := db.Get(c.OperandName())
	if err != nil || !loaded.Equal(c.R) {
		t.Fatalf("codec round trip lost the gadget: %v", err)
	}

	// 2. Evaluate φ_G with the generic join: it must agree with Lemma 1's
	// prediction.
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ExpectedPhiResult()
	if err != nil {
		t.Fatal(err)
	}
	ev := algebra.Evaluator{Algorithm: join.Generic{}}
	viaWCOJ, err := ev.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}
	if !viaWCOJ.Equal(want) {
		t.Fatalf("the generic join violates Lemma 1 for %v", g)
	}

	// 3. Decide every catalogued problem and cross-check.
	satisfiable, _, err := sat.Satisfiable(g)
	if err != nil {
		t.Fatal(err)
	}
	// membership (NP) + fixpoint (co-NP).
	mres, err := relquery.SATViaMembership(g)
	if err != nil || mres.Answer != satisfiable {
		t.Fatalf("membership route: %+v %v (want %v)", mres, err, satisfiable)
	}
	fres, err := relquery.UNSATViaFixpoint(g)
	if err != nil || fres.Answer != !satisfiable {
		t.Fatalf("fixpoint route: %+v %v", fres, err)
	}
	// result verification (Dᵖ): the true result must verify; a corrupted
	// conjecture must not.
	cmp, err := decide.ResultEquals(phi, db, want, decide.Budget{})
	if err != nil || !cmp.Holds {
		t.Fatalf("ResultEquals(truth): %+v %v", cmp, err)
	}
	corrupted := want.Clone()
	corrupted.MustAdd(corruptTuple(want))
	cmp, err = decide.ResultEquals(phi, db, corrupted, decide.Budget{})
	if err != nil || cmp.Holds {
		t.Fatalf("ResultEquals(corrupted) accepted: %+v %v", cmp, err)
	}
	// counting (#P).
	count, err := decide.Count(phi, db, decide.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	aG, err := sat.CountModels(g)
	if err != nil {
		t.Fatal(err)
	}
	if reduction.CountingIdentity(c, count) != aG {
		t.Fatalf("counting identity: |φ|=%d a(G)=%d", count, aG)
	}
	// cardinality window (Dᵖ).
	atLeast, err := decide.CardAtLeast(phi, db, count, decide.Budget{})
	if err != nil || !atLeast {
		t.Fatalf("CardAtLeast(count): %v %v", atLeast, err)
	}
	atMost, err := decide.CardAtMost(phi, db, count, decide.Budget{})
	if err != nil || !atMost {
		t.Fatalf("CardAtMost(count): %v %v", atMost, err)
	}
	// Π₂ᵖ comparison on a derived ∀∃ sentence.
	universal := []int{1 + rng.Intn(g.NumVars)}
	inst := &qbf.Instance{G: g, Universal: universal}
	direct, err := qbf.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	via4, err := relquery.Q3SATViaQueryComparison(inst)
	if err != nil || via4.Answer != direct.Holds {
		t.Fatalf("Theorem 4 route: %+v %v (want %v)", via4, err, direct.Holds)
	}
	via5, err := relquery.Q3SATViaRelationComparison(inst)
	if err != nil || via5.Answer != direct.Holds {
		t.Fatalf("Theorem 5 route: %+v %v (want %v)", via5, err, direct.Holds)
	}
}

// corruptTuple builds a tuple over r's scheme that cannot occur in any
// gadget result (a fresh symbol in every column).
func corruptTuple(r *relation.Relation) relation.Tuple {
	t := make(relation.Tuple, r.Scheme().Len())
	for i := range t {
		t[i] = "zz-corrupt"
	}
	return t
}
