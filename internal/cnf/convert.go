package cnf

import "fmt"

// To3CNF converts an arbitrary CNF formula into an equisatisfiable 3CNF
// formula in the paper's reduction form: every clause has exactly three
// literals over distinct variables. Fresh variables are appended after
// f.NumVars. The transformation is the textbook one:
//
//   - a tautological clause (contains l and ¬l) is dropped;
//   - duplicate literals within a clause are collapsed;
//   - an empty clause makes the formula unsatisfiable, emitted as the
//     eight sign patterns over three fresh variables;
//   - a 1-literal clause (l) becomes four clauses (l + y₁ + y₂) over the
//     sign patterns of two fresh variables;
//   - a 2-literal clause (l₁ + l₂) becomes two clauses (l₁ + l₂ + y),
//     (l₁ + l₂ + ¬y) with one fresh variable;
//   - a k-literal clause, k > 3, is split with a chain of k−3 fresh
//     variables: (l₁ + l₂ + z₁)(¬z₁ + l₃ + z₂)…(¬z_{k−3} + l_{k−1} + l_k).
//
// Satisfiability is preserved exactly; model counts are not (each
// transformation multiplies or reshapes the solution space), which is why
// Theorem 2's padding uses PadWithFreshClauses instead.
//
// The result may still have fewer than three clauses; callers that feed
// the paper's reduction should apply EnsureMinClauses afterwards.
func To3CNF(f *Formula) (*Formula, error) {
	out := &Formula{NumVars: f.NumVars}
	fresh := func() Lit {
		out.NumVars++
		return Lit(out.NumVars)
	}
	for _, orig := range f.Clauses {
		if orig.Tautological() {
			continue
		}
		c := dedupe(orig)
		switch len(c) {
		case 0:
			// Unsatisfiable: emit the 8-clause core over fresh variables.
			a, b, d := fresh(), fresh(), fresh()
			for bits := 0; bits < 8; bits++ {
				cl := Clause{a, b, d}
				for i := range cl {
					if bits&(1<<i) != 0 {
						cl[i] = cl[i].Neg()
					}
				}
				out.Clauses = append(out.Clauses, cl)
			}
		case 1:
			y1, y2 := fresh(), fresh()
			for bits := 0; bits < 4; bits++ {
				cl := Clause{c[0], y1, y2}
				if bits&1 != 0 {
					cl[1] = cl[1].Neg()
				}
				if bits&2 != 0 {
					cl[2] = cl[2].Neg()
				}
				out.Clauses = append(out.Clauses, cl)
			}
		case 2:
			y := fresh()
			out.Clauses = append(out.Clauses,
				Clause{c[0], c[1], y},
				Clause{c[0], c[1], y.Neg()},
			)
		case 3:
			out.Clauses = append(out.Clauses, c.Clone())
		default:
			// Chain split.
			z := fresh()
			out.Clauses = append(out.Clauses, Clause{c[0], c[1], z})
			rest := c[2:]
			for len(rest) > 2 {
				z2 := fresh()
				out.Clauses = append(out.Clauses, Clause{z.Neg(), rest[0], z2})
				z = z2
				rest = rest[1:]
			}
			out.Clauses = append(out.Clauses, Clause{z.Neg(), rest[0], rest[1]})
		}
	}
	if err := validate3CNF(out); err != nil {
		return nil, err
	}
	return out, nil
}

// dedupe removes duplicate literals, preserving first-occurrence order.
// The clause must not be tautological.
func dedupe(c Clause) Clause {
	seen := make(map[Lit]bool, len(c))
	out := make(Clause, 0, len(c))
	for _, l := range c {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

func validate3CNF(f *Formula) error {
	for i, c := range f.Clauses {
		if len(c) != 3 || !c.DistinctVars() {
			return fmt.Errorf("cnf: internal error: converted clause %d = %v is not 3CNF", i+1, c)
		}
	}
	return nil
}

// Compact renumbers variables so that exactly the variables occurring in
// some clause remain, numbered 1..k in order of their original indices.
// It returns the renumbered formula and the old→new variable mapping.
//
// The paper's constructions assume every variable of G appears in the
// expression ("the variables appearing in the expression are x₁,…,x_n");
// reduction.New enforces that, and Compact establishes it. Note that
// compacting divides the model count by 2 for every removed variable
// (a variable in no clause is a free factor of 2).
func Compact(f *Formula) (*Formula, map[int]int) {
	used := f.UsedVars()
	remap := make(map[int]int, len(used))
	for i, v := range used {
		remap[v] = i + 1
	}
	out := &Formula{NumVars: len(used), Clauses: make([]Clause, len(f.Clauses))}
	for i, c := range f.Clauses {
		nc := make(Clause, len(c))
		for k, l := range c {
			nl := Lit(remap[l.Var()])
			if !l.Pos() {
				nl = nl.Neg()
			}
			nc[k] = nl
		}
		out.Clauses[i] = nc
	}
	return out, remap
}

// AllVarsUsed reports whether every variable 1..NumVars occurs in some
// clause.
func (f *Formula) AllVarsUsed() bool {
	return len(f.UsedVars()) == f.NumVars
}

// EnsureMinClauses pads f with trivially satisfiable fresh-variable
// clauses until it has at least min clauses, returning f itself when it is
// already long enough. Used to meet the paper's ≥ 3 clause assumption.
func EnsureMinClauses(f *Formula, min int) (*Formula, error) {
	if len(f.Clauses) >= min {
		return f, nil
	}
	return PadWithFreshClauses(f, min-len(f.Clauses))
}

// Normalize brings a formula into the paper's reduction form, padding to
// three clauses and compacting unused variables. It fails on formulas that
// are not 3CNF with distinct in-clause variables.
func Normalize(g *Formula) (*Formula, error) {
	g2, err := EnsureMinClauses(g, 3)
	if err != nil {
		return nil, err
	}
	g3, _ := Compact(g2)
	if err := g3.CheckReductionForm(); err != nil {
		return nil, err
	}
	return g3, nil
}
