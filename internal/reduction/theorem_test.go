package reduction

import (
	"math/rand"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/join"
	"relquery/internal/qbf"
	"relquery/internal/relation"
	"relquery/internal/sat"
)

// evalExpr materializes an expression with the generic join, whose space
// stays bounded by input and output — the paper's gadgets are exactly the
// queries whose intermediate joins explode.
func evalExpr(t *testing.T, e algebra.Expr, db relation.Database) *relation.Relation {
	t.Helper()
	ev := algebra.Evaluator{Algorithm: join.Generic{}}
	out, err := ev.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// evalPhi materializes φ_G(R_G) for a construction.
func evalPhi(t *testing.T, c *Construction) int {
	t.Helper()
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	got := evalExpr(t, phi, c.Database())
	want, err := c.ExpectedPhiResult()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("Lemma 1 violated for %v (|got|=%d |want|=%d)", c.G, got.Len(), want.Len())
	}
	return got.Len()
}

func TestLemma1RandomSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(4)
		m := 3 + rng.Intn(4)
		g, err := cnf.Random3CNF(rng, n, m)
		if err != nil {
			t.Fatal(err)
		}
		g, _ = cnf.Compact(g)
		c, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		size := evalPhi(t, c)
		// Theorem 3 identity: a(G) = |φ_G(R_G)| − 7m − 1.
		aG, err := sat.CountModels(g)
		if err != nil {
			t.Fatal(err)
		}
		if CountingIdentity(c, size) != aG {
			t.Errorf("counting identity: got %d, a(G)=%d for %v", CountingIdentity(c, size), aG, g)
		}
	}
}

func TestProposition1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(g *cnf.Formula, wantSat bool) {
		t.Helper()
		c, err := New(g)
		if err != nil {
			t.Fatal(err)
		}
		phi, err := c.PhiG()
		if err != nil {
			t.Fatal(err)
		}
		py, err := algebra.NewProject(c.YScheme(), phi)
		if err != nil {
			t.Fatal(err)
		}
		got := evalExpr(t, py, c.Database())
		base, err := c.R.Project(c.YScheme())
		if err != nil {
			t.Fatal(err)
		}
		if wantSat {
			withU := base.Clone()
			withU.MustAdd(c.UG().Vals)
			if !got.Equal(withU) {
				t.Errorf("Prop 1 (sat): π_Y φ_G(R_G) ≠ π_Y(R_G) ∪ {u_G} for %v", g)
			}
		} else {
			if !got.Equal(base) {
				t.Errorf("Prop 1 (unsat): π_Y φ_G(R_G) ≠ π_Y(R_G) for %v", g)
			}
		}
		// β = m + 1 reading of the projected cardinality.
		wantLen := c.M() + 1
		if wantSat {
			wantLen++
		}
		if got.Len() != wantLen {
			t.Errorf("|π_Y φ_G(R_G)| = %d, want %d", got.Len(), wantLen)
		}
	}
	for trial := 0; trial < 4; trial++ {
		gSat, _, err := cnf.PlantedSatisfiable3CNF(rng, 5, 4+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		gSat, _ = cnf.Compact(gSat)
		check(gSat, true)
		gUnsat, err := cnf.Unsatisfiable3CNF(rng, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		gUnsat, _ = cnf.Compact(gUnsat)
		check(gUnsat, false)
	}
}

// fourCombos returns formula pairs covering (sat,sat), (sat,unsat),
// (unsat,sat), (unsat,unsat).
func fourCombos(t *testing.T, rng *rand.Rand) [][2]*cnf.Formula {
	t.Helper()
	mk := func(satisfiable bool) *cnf.Formula {
		if satisfiable {
			g, _, err := cnf.PlantedSatisfiable3CNF(rng, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			g, _ = cnf.Compact(g)
			return g
		}
		g, err := cnf.Unsatisfiable3CNF(rng, 3, 8)
		if err != nil {
			t.Fatal(err)
		}
		g, _ = cnf.Compact(g)
		return g
	}
	return [][2]*cnf.Formula{
		{mk(true), mk(true)},
		{mk(true), mk(false)},
		{mk(false), mk(true)},
		{mk(false), mk(false)},
	}
}

func TestTheorem1Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3; trial++ {
		for comboIdx, pair := range fourCombos(t, rng) {
			g, gp := pair[0], pair[1]
			inst, err := Theorem1(g, gp)
			if err != nil {
				t.Fatal(err)
			}
			got := evalExpr(t, inst.Phi, inst.Database())
			satG, _, err := sat.Satisfiable(g)
			if err != nil {
				t.Fatal(err)
			}
			satGP, _, err := sat.Satisfiable(gp)
			if err != nil {
				t.Fatal(err)
			}
			wantEqual := satG && !satGP
			if got.Equal(inst.Conjectured) != wantEqual {
				t.Errorf("combo %d: φ(R) = r is %v, want %v (sat(G)=%v sat(G')=%v)",
					comboIdx, got.Equal(inst.Conjectured), wantEqual, satG, satGP)
			}
		}
	}
}

func TestTheorem1RejectsBadInput(t *testing.T) {
	short := cnf.MustNew(3, cnf.C(1, 2, 3))
	if _, err := Theorem1(short, cnf.PaperExample()); err == nil {
		t.Error("short G accepted")
	}
	if _, err := Theorem1(cnf.PaperExample(), short); err == nil {
		t.Error("short G' accepted")
	}
}

func TestTheorem2Window(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2; trial++ {
		for comboIdx, pair := range fourCombos(t, rng) {
			g, gp := pair[0], pair[1]
			inst, err := Theorem2(g, gp)
			if err != nil {
				t.Fatal(err)
			}
			if inst.Beta >= inst.BetaPrime {
				t.Fatalf("padding failed: β=%d β'=%d", inst.Beta, inst.BetaPrime)
			}
			n := evalExpr(t, inst.Phi(), inst.Database()).Len()
			satG, _, err := sat.Satisfiable(g)
			if err != nil {
				t.Fatal(err)
			}
			satGP, _, err := sat.Satisfiable(gp)
			if err != nil {
				t.Fatal(err)
			}
			want := satG && !satGP
			inWindow := inst.D1 <= n && n <= inst.D2
			if inWindow != want {
				t.Errorf("combo %d: |φ(R)|=%d window=[%d,%d] in=%v want=%v",
					comboIdx, n, inst.D1, inst.D2, inWindow, want)
			}
			if (n == inst.Exact) != want {
				t.Errorf("combo %d: |φ(R)|=%d exact=%d", comboIdx, n, inst.Exact)
			}
		}
	}
}

func TestSingleCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	gSat, _, err := cnf.PlantedSatisfiable3CNF(rng, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	gSat, _ = cnf.Compact(gSat)
	gUnsat, err := cnf.Unsatisfiable3CNF(rng, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	gUnsat, _ = cnf.Compact(gUnsat)
	for _, tc := range []struct {
		g    *cnf.Formula
		want bool // satisfiable
	}{{gSat, true}, {gUnsat, false}} {
		sc, err := NewSingleCardinality(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		got := evalExpr(t, sc.Phi, sc.C.Database())
		// sat ⇔ β+1 ≤ |φ(R)|; unsat ⇔ |φ(R)| ≤ β.
		if (got.Len() >= sc.Beta+1) != tc.want {
			t.Errorf("|π_Y φ_G| = %d, β = %d, sat = %v", got.Len(), sc.Beta, tc.want)
		}
	}
}

// randomPreparedQ3SAT draws a Q-3SAT instance and brings it into reduction
// form with PrepareQ3SAT; decided instances are skipped by returning nil.
func randomPreparedQ3SAT(t *testing.T, rng *rand.Rand) (*qbf.Instance, bool) {
	t.Helper()
	n := 3 + rng.Intn(3)
	m := 3 + rng.Intn(3)
	g, err := cnf.Random3CNF(rng, n, m)
	if err != nil {
		t.Fatal(err)
	}
	r := 1 + rng.Intn(2)
	universal := rng.Perm(n)[:r]
	for i := range universal {
		universal[i]++
	}
	raw := &qbf.Instance{G: g, Universal: universal}
	prepared, decided, holds, err := PrepareQ3SAT(raw)
	if err != nil {
		t.Fatal(err)
	}
	if decided {
		// Cross-check the trivial answer, then skip.
		res, err := qbf.Solve(raw)
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds != holds {
			t.Fatalf("PrepareQ3SAT trivial answer %v disagrees with solver %v", holds, res.Holds)
		}
		return nil, false
	}
	return prepared, true
}

func TestTheorem4Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tested := 0
	for trial := 0; trial < 12 && tested < 6; trial++ {
		inst, ok := randomPreparedQ3SAT(t, rng)
		if !ok {
			continue
		}
		tested++
		th4, err := Theorem4(inst)
		if err != nil {
			t.Fatal(err)
		}
		db := th4.Database()
		r1 := evalExpr(t, th4.Q1, db)
		r2 := evalExpr(t, th4.Q2, db)
		// Q2(R) ⊆ Q1(R) always.
		sub, err := r2.SubsetOf(r1)
		if err != nil || !sub {
			t.Errorf("unconditional containment Q2 ⊆ Q1 failed: %v %v", sub, err)
		}
		want, err := qbf.Solve(inst)
		if err != nil {
			t.Fatal(err)
		}
		gotContained, err := r1.SubsetOf(r2)
		if err != nil {
			t.Fatal(err)
		}
		if gotContained != want.Holds {
			t.Errorf("Theorem 4: Q1 ⊆ Q2 is %v, ∀∃ is %v for %v", gotContained, want.Holds, inst)
		}
		if r1.Equal(r2) != want.Holds {
			t.Errorf("Theorem 4: Q1 = Q2 is %v, ∀∃ is %v", r1.Equal(r2), want.Holds)
		}
	}
	if tested == 0 {
		t.Fatal("no undecided instances generated")
	}
}

func TestTheorem5Equivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tested := 0
	for trial := 0; trial < 12 && tested < 6; trial++ {
		inst, ok := randomPreparedQ3SAT(t, rng)
		if !ok {
			continue
		}
		tested++
		th5, err := Theorem5(inst)
		if err != nil {
			t.Fatal(err)
		}
		dbD, dbP := th5.Databases()
		rD := evalExpr(t, th5.Q, dbD)
		rP := evalExpr(t, th5.Q, dbP)
		// Q(R_G) ⊆ Q(R''_G) always (R_G ⊆ R''_G).
		sub, err := rP.SubsetOf(rD)
		if err != nil || !sub {
			t.Errorf("unconditional containment failed: %v %v", sub, err)
		}
		want, err := qbf.Solve(inst)
		if err != nil {
			t.Fatal(err)
		}
		gotContained, err := rD.SubsetOf(rP)
		if err != nil {
			t.Fatal(err)
		}
		if gotContained != want.Holds {
			t.Errorf("Theorem 5: Q(R'') ⊆ Q(R) is %v, ∀∃ is %v for %v", gotContained, want.Holds, inst)
		}
		if rD.Equal(rP) != want.Holds {
			t.Errorf("Theorem 5: equality is %v, ∀∃ is %v", rD.Equal(rP), want.Holds)
		}
	}
	if tested == 0 {
		t.Fatal("no undecided instances generated")
	}
}

func TestValidateQ3SAT(t *testing.T) {
	g := cnf.PaperExample()
	// Empty X.
	if err := ValidateQ3SAT(&qbf.Instance{G: g}, false); err == nil {
		t.Error("empty X accepted")
	}
	// X contained in a clause (R1 violation): X = {1,2} ⊆ V1.
	if err := ValidateQ3SAT(&qbf.Instance{G: g, Universal: []int{1, 2}}, false); err == nil {
		t.Error("R1 violation accepted")
	}
	// R2 violation: X ⊇ V1 = {1,2,3}, with extra var to avoid R1.
	if err := ValidateQ3SAT(&qbf.Instance{G: g, Universal: []int{1, 2, 3, 5}}, true); err == nil {
		t.Error("R2 violation accepted when needR2")
	}
	// Same X fine when R2 not needed.
	if err := ValidateQ3SAT(&qbf.Instance{G: g, Universal: []int{1, 2, 3, 5}}, false); err != nil {
		t.Errorf("R1-satisfying instance rejected: %v", err)
	}
	// Vacuous universal variable.
	g6 := cnf.MustNew(6, g.Clauses...)
	if err := ValidateQ3SAT(&qbf.Instance{G: g6, Universal: []int{1, 6}}, false); err == nil {
		t.Error("vacuous universal variable accepted")
	}
}

func TestPrepareQ3SATDropsVacuous(t *testing.T) {
	g := cnf.MustNew(6, cnf.PaperExample().Clauses...)
	inst := &qbf.Instance{G: g, Universal: []int{1, 6}} // x6 vacuous
	prepared, decided, _, err := PrepareQ3SAT(inst)
	if err != nil {
		t.Fatal(err)
	}
	if decided {
		t.Fatal("unexpectedly decided")
	}
	if !prepared.G.AllVarsUsed() {
		t.Error("prepared matrix still has vacuous variables")
	}
	// Original X was {x1, vacuous x6}; prepared X = {x1} plus the two
	// Proposition 4 fresh variables.
	if len(prepared.Universal) != 3 {
		t.Errorf("prepared X = %v, want 3 variables", prepared.Universal)
	}
	if err := ValidateQ3SAT(prepared, true); err != nil {
		t.Errorf("prepared instance invalid: %v", err)
	}
	// Preparation preserves the answer.
	want, err := qbf.Solve(inst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qbf.Solve(prepared)
	if err != nil {
		t.Fatal(err)
	}
	if got.Holds != want.Holds {
		t.Errorf("preparation changed the answer: %v -> %v", want.Holds, got.Holds)
	}
}
