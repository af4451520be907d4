// Package core ties the library together into the paper's "complexity
// atlas": one entry point per result of Cosmadakis (1983), each deciding a
// logic problem purely through the query-side reduction — build the gadget
// relation and expression, run the generic decision procedure from
// internal/decide, and read the logical answer off the query answer. The
// direct solvers (internal/sat, internal/qbf) exist alongside so that
// every entry point can be cross-checked; the verification harness and the
// E0–E8 experiment drivers live here too.
package core

import (
	"context"
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/decide"
	"relquery/internal/join"
	"relquery/internal/qbf"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// Result reports a query-side decision together with the work performed,
// so experiments can compare reduction routes against direct solvers.
type Result struct {
	// Answer is the decided predicate (its meaning depends on the entry
	// point: satisfiability, the Dᵖ conjunction, the ∀∃ sentence, ...).
	Answer bool
	// Route describes which theorem's reduction produced the answer.
	Route string
}

// SATViaMembership decides satisfiability of g through Proposition 1 and
// Yannakakis' NP-complete membership problem: G is satisfiable iff
// u_G ∈ π_Y(φ_G(R_G)).
func SATViaMembership(g *cnf.Formula) (Result, error) {
	return SATViaMembershipContext(context.Background(), g)
}

// SATViaMembershipContext is SATViaMembership under a context: the NP
// search polls the deadline/cancellation per candidate value and aborts
// with the governor sentinels.
func SATViaMembershipContext(ctx context.Context, g *cnf.Formula) (Result, error) {
	g, err := cnf.Normalize(g)
	if err != nil {
		return Result{}, err
	}
	c, err := reduction.New(g)
	if err != nil {
		return Result{}, err
	}
	phi, err := c.PhiG()
	if err != nil {
		return Result{}, err
	}
	py, err := algebra.NewProject(c.YScheme(), phi)
	if err != nil {
		return Result{}, err
	}
	ok, err := decide.MemberBudget(c.UG(), py, c.Database(), decide.Budget{}.WithContext(ctx))
	if err != nil {
		return Result{}, err
	}
	return Result{Answer: ok, Route: "u_G ∈ π_Y(φ_G(R_G)) [Prop. 1, NP]"}, nil
}

// UNSATViaFixpoint decides unsatisfiability of g through the co-NP-
// complete fixpoint problem (after Maier–Sagiv–Yannakakis): G is
// unsatisfiable iff φ_G(R_G) = R_G, i.e. R_G satisfies the join
// dependency ∗[F, T₁, …, T_m].
func UNSATViaFixpoint(g *cnf.Formula) (Result, error) {
	return UNSATViaFixpointContext(context.Background(), g)
}

// UNSATViaFixpointContext is UNSATViaFixpoint under a context: the
// streaming decision honors ctx's deadline and cancellation via the
// resource governor, surfacing governor.ErrDeadline / ErrCanceled.
func UNSATViaFixpointContext(ctx context.Context, g *cnf.Formula) (Result, error) {
	g, err := cnf.Normalize(g)
	if err != nil {
		return Result{}, err
	}
	c, err := reduction.New(g)
	if err != nil {
		return Result{}, err
	}
	phi, err := c.PhiG()
	if err != nil {
		return Result{}, err
	}
	cmp, err := decide.ResultEquals(phi, c.Database(), c.R, decide.Budget{}.WithContext(ctx))
	if err != nil {
		return Result{}, err
	}
	return Result{Answer: cmp.Holds, Route: "φ_G(R_G) = R_G [MSY, co-NP]"}, nil
}

// SATAndUNSATViaResultEquals decides "g satisfiable AND gPrime
// unsatisfiable" — the Dᵖ-complete 3SAT-3UNSAT problem — through
// Theorem 1: the conjunction holds iff φ_{G,G′}(R_{G,G′}) = r_{G,G′}.
func SATAndUNSATViaResultEquals(g, gPrime *cnf.Formula) (Result, error) {
	g, err := cnf.Normalize(g)
	if err != nil {
		return Result{}, err
	}
	gPrime, err = cnf.Normalize(gPrime)
	if err != nil {
		return Result{}, err
	}
	inst, err := reduction.Theorem1(g, gPrime)
	if err != nil {
		return Result{}, err
	}
	cmp, err := decide.ResultEquals(inst.Phi, inst.Database(), inst.Conjectured, decide.Budget{})
	if err != nil {
		return Result{}, err
	}
	return Result{Answer: cmp.Holds, Route: "φ(R) = r [Thm. 1, Dᵖ]"}, nil
}

// SATAndUNSATViaCardinality decides the same Dᵖ conjunction through
// Theorem 2's cardinality window: it holds iff
// β(β′+1)+1 ≤ |φ(R)| ≤ β(β′+1)+β′.
func SATAndUNSATViaCardinality(g, gPrime *cnf.Formula) (Result, error) {
	g, err := cnf.Normalize(g)
	if err != nil {
		return Result{}, err
	}
	gPrime, err = cnf.Normalize(gPrime)
	if err != nil {
		return Result{}, err
	}
	inst, err := reduction.Theorem2(g, gPrime)
	if err != nil {
		return Result{}, err
	}
	ok, err := decide.CardBetween(inst.Phi(), inst.Database(), inst.D1, inst.D2, decide.Budget{})
	if err != nil {
		return Result{}, err
	}
	return Result{Answer: ok, Route: "d₁ ≤ |φ(R)| ≤ d₂ [Thm. 2, Dᵖ]"}, nil
}

// CountModelsViaQuery counts the satisfying assignments of g through
// Theorem 3: a(G) = |φ_G(R_G)| − 7m − 1.
func CountModelsViaQuery(g *cnf.Formula) (int64, error) {
	return CountModelsViaQueryContext(context.Background(), g)
}

// CountModelsViaQueryContext is CountModelsViaQuery under a context (see
// UNSATViaFixpointContext).
func CountModelsViaQueryContext(ctx context.Context, g *cnf.Formula) (int64, error) {
	g, err := cnf.Normalize(g)
	if err != nil {
		return 0, err
	}
	c, err := reduction.New(g)
	if err != nil {
		return 0, err
	}
	phi, err := c.PhiG()
	if err != nil {
		return 0, err
	}
	size, err := decide.Count(phi, c.Database(), decide.Budget{}.WithContext(ctx))
	if err != nil {
		return 0, err
	}
	return reduction.CountingIdentity(c, size), nil
}

// Q3SATViaQueryComparison decides ∀X ∃X′ G through Theorem 4: after
// Proposition 4 preprocessing, the sentence holds iff
// π_X(φ₁(R′_G)) ⊆ π_X(φ₂(R′_G)) over the single fixed relation R′_G.
func Q3SATViaQueryComparison(inst *qbf.Instance) (Result, error) {
	return Q3SATViaQueryComparisonContext(context.Background(), inst)
}

// Q3SATViaQueryComparisonContext is Q3SATViaQueryComparison under a
// context (see UNSATViaFixpointContext).
func Q3SATViaQueryComparisonContext(ctx context.Context, inst *qbf.Instance) (Result, error) {
	prepared, decided, holds, err := reduction.PrepareQ3SAT(inst)
	if err != nil {
		return Result{}, err
	}
	if decided {
		return Result{Answer: holds, Route: "Prop. 4 preprocessing (trivially false)"}, nil
	}
	th4, err := reduction.Theorem4(prepared)
	if err != nil {
		return Result{}, err
	}
	cmp, err := decide.ContainedFixedRelation(th4.Q1, th4.Q2, th4.Database(), decide.Budget{}.WithContext(ctx))
	if err != nil {
		return Result{}, err
	}
	return Result{Answer: cmp.Holds, Route: "Q₁(R′_G) ⊆ Q₂(R′_G) [Thm. 4, Π₂ᵖ]"}, nil
}

// Q3SATViaRelationComparison decides ∀X ∃X′ G through Theorem 5: the
// sentence holds iff π_X(φ_G)(R″_G) ⊆ π_X(φ_G)(R_G), one fixed query over
// two relations.
func Q3SATViaRelationComparison(inst *qbf.Instance) (Result, error) {
	prepared, decided, holds, err := reduction.PrepareQ3SAT(inst)
	if err != nil {
		return Result{}, err
	}
	if decided {
		return Result{Answer: holds, Route: "Prop. 4 preprocessing (trivially false)"}, nil
	}
	th5, err := reduction.Theorem5(prepared)
	if err != nil {
		return Result{}, err
	}
	dbDouble, dbPlain := th5.Databases()
	cmp, err := decide.ContainedFixedQuery(th5.Q, dbDouble, dbPlain, decide.Budget{})
	if err != nil {
		return Result{}, err
	}
	return Result{Answer: cmp.Holds, Route: "Q(R″_G) ⊆ Q(R_G) [Thm. 5, Π₂ᵖ]"}, nil
}

// VerifyLemma1 checks Lemma 1 on g by materializing φ_G(R_G) with the
// generic join (evalWCOJ) and comparing against R_G ∪ R̃_G; it reports a
// descriptive error on any mismatch.
func VerifyLemma1(g *cnf.Formula) error {
	g, err := cnf.Normalize(g)
	if err != nil {
		return err
	}
	c, err := reduction.New(g)
	if err != nil {
		return err
	}
	phi, err := c.PhiG()
	if err != nil {
		return err
	}
	got, err := evalWCOJ(phi, c.Database())
	if err != nil {
		return err
	}
	want, err := c.ExpectedPhiResult()
	if err != nil {
		return err
	}
	if !got.Equal(want) {
		return fmt.Errorf("core: Lemma 1 violated for %v: |φ_G(R_G)| = %d, |R_G ∪ R̃_G| = %d", g, got.Len(), want.Len())
	}
	return nil
}

// VerifyProposition1 checks Proposition 1 on g: π_Y(φ_G(R_G)) equals
// π_Y(R_G), plus u_G exactly when G is satisfiable (satisfiability decided
// by the query route itself plus the SAT solver must agree; any
// disagreement is reported).
func VerifyProposition1(g *cnf.Formula, satisfiable bool) error {
	g, err := cnf.Normalize(g)
	if err != nil {
		return err
	}
	c, err := reduction.New(g)
	if err != nil {
		return err
	}
	phi, err := c.PhiG()
	if err != nil {
		return err
	}
	py, err := algebra.NewProject(c.YScheme(), phi)
	if err != nil {
		return err
	}
	got, err := evalWCOJ(py, c.Database())
	if err != nil {
		return err
	}
	want, err := c.R.Project(c.YScheme())
	if err != nil {
		return err
	}
	if satisfiable {
		ug := c.UG()
		aligned, err := ug.Project(want.Scheme())
		if err != nil {
			return err
		}
		if _, err := want.Add(aligned.Vals); err != nil {
			return err
		}
	}
	if !got.Equal(want) {
		return fmt.Errorf("core: Proposition 1 violated for %v (sat=%v): got %d tuples, want %d", g, satisfiable, got.Len(), want.Len())
	}
	return nil
}

// EvalGadget materializes φ_G(R_G) with the generic join, returning the
// construction for inspection. It is the shared workhorse of the
// experiment drivers.
func EvalGadget(g *cnf.Formula) (*reduction.Construction, *relation.Relation, error) {
	g, err := cnf.Normalize(g)
	if err != nil {
		return nil, nil, err
	}
	c, err := reduction.New(g)
	if err != nil {
		return nil, nil, err
	}
	phi, err := c.PhiG()
	if err != nil {
		return nil, nil, err
	}
	out, err := evalWCOJ(phi, c.Database())
	if err != nil {
		return nil, nil, err
	}
	return c, out, nil
}

// evalWCOJ materializes e(db) with the generic join on every join node,
// whose space is the output's and never an intermediate's: the gadgets'
// blow-up does not reach it.
func evalWCOJ(e algebra.Expr, db relation.Database) (*relation.Relation, error) {
	ev := algebra.Evaluator{Algorithm: join.Generic{}}
	return ev.Eval(e, db)
}
