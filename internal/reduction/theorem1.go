package reduction

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/join"
	"relquery/internal/relation"
)

// phiOver builds φ_G's shape — π_F(op) ∗ ∏*_j π_{T_j}(op) — against an
// arbitrary operand, used when the gadget is embedded in a larger relation
// (Theorem 1 joins the primed and unprimed gadgets into one relation over
// T ∪ T′).
func (c *Construction) phiOver(op *algebra.Operand) (algebra.Expr, error) {
	args := make([]algebra.Expr, 0, c.M()+1)
	pf, err := algebra.NewProject(c.FScheme(), op)
	if err != nil {
		return nil, err
	}
	args = append(args, pf)
	for j := 1; j <= c.M(); j++ {
		tj, err := c.TJScheme(j)
		if err != nil {
			return nil, err
		}
		pj, err := algebra.NewProject(tj, op)
		if err != nil {
			return nil, err
		}
		args = append(args, pj)
	}
	return algebra.NewJoin(args...)
}

// Theorem1Instance is the Dᵖ-completeness reduction of Theorem 1: from a
// pair (G, G′) of 3CNF formulas, a single relation R = R_G ∗ R_{G′} over
// the disjoint scheme T ∪ T′, the expression
// φ = π_{Y Y′}(φ_G ∗ φ_{G′}), and the conjectured result
// r = (π_Y(R_G) ∪ {u_G}) ∗ π_{Y′}(R_{G′}), such that
//
//	φ(R) = r  ⇔  G is satisfiable and G′ is unsatisfiable.
type Theorem1Instance struct {
	// G is the unprimed construction (satisfiability side) and GPrime the
	// primed one (unsatisfiability side).
	G, GPrime *Construction
	// OperandName names the single combined relation.
	OperandName string
	// R is R_{G,G′} = R_G ∗ R_{G′} (a cross product: the schemes are
	// disjoint).
	R *relation.Relation
	// Phi is φ_{G,G′} = π_{Y Y′}(φ_G ∗ φ_{G′}) over the combined operand.
	Phi algebra.Expr
	// Conjectured is r_{G,G′}; the Dᵖ question is whether Phi(R) equals it.
	Conjectured *relation.Relation
}

// Theorem1 builds the instance for the pair (g, gPrime). Both formulas
// must be in the paper's reduction form.
func Theorem1(g, gPrime *cnf.Formula) (*Theorem1Instance, error) {
	cg, err := New(g)
	if err != nil {
		return nil, fmt.Errorf("reduction: theorem 1, G: %w", err)
	}
	cgp, err := NewSuffixed(gPrime, "'")
	if err != nil {
		return nil, fmt.Errorf("reduction: theorem 1, G': %w", err)
	}

	combined, err := join.Hash{}.Join(join.Exec{}, cg.R, cgp.R)
	if err != nil {
		return nil, err
	}
	opName := "TT'"
	op, err := algebra.NewOperand(opName, combined.Scheme())
	if err != nil {
		return nil, err
	}

	phiG, err := cg.phiOver(op)
	if err != nil {
		return nil, err
	}
	phiGP, err := cgp.phiOver(op)
	if err != nil {
		return nil, err
	}
	inner, err := algebra.NewJoin(phiG, phiGP)
	if err != nil {
		return nil, err
	}
	yy := cg.YScheme().Union(cgp.YScheme())
	phi, err := algebra.NewProject(yy, inner)
	if err != nil {
		return nil, err
	}

	conjectured, err := conjecturedResult(cg, cgp)
	if err != nil {
		return nil, err
	}
	return &Theorem1Instance{
		G:           cg,
		GPrime:      cgp,
		OperandName: opName,
		R:           combined,
		Phi:         phi,
		Conjectured: conjectured,
	}, nil
}

// conjecturedResult computes r_{G,G′} = (π_Y(R_G) ∪ {u_G}) ∗ π_{Y′}(R_{G′}).
func conjecturedResult(cg, cgp *Construction) (*relation.Relation, error) {
	py, err := cg.R.Project(cg.YScheme())
	if err != nil {
		return nil, err
	}
	ug := cg.UG()
	aligned, err := ug.Project(py.Scheme())
	if err != nil {
		return nil, err
	}
	if _, err := py.Add(aligned.Vals); err != nil {
		return nil, err
	}
	pyPrime, err := cgp.R.Project(cgp.YScheme())
	if err != nil {
		return nil, err
	}
	return join.Hash{}.Join(join.Exec{}, py, pyPrime)
}

// Database returns the single-relation database of the instance.
func (inst *Theorem1Instance) Database() relation.Database {
	return relation.Single(inst.OperandName, inst.R)
}
