// Package sat implements satisfiability machinery for the logic side of
// the paper's reductions: a brute-force reference solver, a DPLL solver
// with unit propagation and pure-literal elimination, exact model counting
// (#3SAT, for Theorem 3) with connected-component decomposition, and model
// enumeration (used to build the paper's R̃_G).
//
// Everything here is exhaustive search with pruning — the honest
// realization of the nondeterministic machines the paper's membership
// proofs assume. Every solver and counter carries a Gov field and ticks
// it once per search node, so a logic-side search stops on the same
// governor.CheckEvery batch, with the same sentinels, as a join; a nil
// Gov is ungoverned.
package sat

import (
	"fmt"

	"relquery/internal/cnf"
	"relquery/internal/governor"
)

// MaxBruteVars bounds exhaustive enumeration: counts and masks are held in
// int64/uint64, so formulas must have at most 62 variables.
const MaxBruteVars = 62

// Solver decides satisfiability of a CNF formula.
type Solver interface {
	// Name identifies the solver in experiment tables.
	Name() string
	// Solve reports whether f is satisfiable and, if so, a witnessing
	// model over all f.NumVars variables.
	Solve(f *cnf.Formula) (sat bool, model cnf.Assignment, err error)
}

// BruteForce tries all 2^n assignments in increasing bit order. It is the
// reference implementation the DPLL solver is tested against.
type BruteForce struct {
	// Gov is ticked once per assignment tried; nil is ungoverned.
	Gov *governor.Governor
}

// Name implements Solver.
func (BruteForce) Name() string { return "brute" }

// Solve implements Solver.
func (b BruteForce) Solve(f *cnf.Formula) (bool, cnf.Assignment, error) {
	if f.NumVars > MaxBruteVars {
		return false, nil, fmt.Errorf("sat: brute force limited to %d variables, formula has %d", MaxBruteVars, f.NumVars)
	}
	a := cnf.NewAssignment(f.NumVars)
	for mask := uint64(0); ; mask++ {
		if err := b.Gov.Tick(); err != nil {
			return false, nil, err
		}
		a.FromBits(mask)
		if f.Eval(a) {
			return true, a.Clone(), nil
		}
		if f.NumVars == 0 || mask == (uint64(1)<<uint(f.NumVars))-1 {
			break
		}
	}
	return false, nil, nil
}

// Satisfiable decides f with the default solver (DPLL).
func Satisfiable(f *cnf.Formula) (bool, cnf.Assignment, error) {
	return DPLL{}.Solve(f)
}

// value is a three-valued variable state used by the search procedures.
type value int8

const (
	unassigned value = iota
	vFalse
	vTrue
)

func boolToValue(b bool) value {
	if b {
		return vTrue
	}
	return vFalse
}

// state is a mutable solving context shared by DPLL search, counting and
// enumeration.
type state struct {
	clauses []cnf.Clause
	assign  []value // 1-indexed: assign[v] for variable v
	numVars int

	// gov is ticked once per search node; err latches the violation that
	// stopped the search (the recursion unwinds through boolean returns,
	// so the error travels out of band).
	gov *governor.Governor
	err error
}

func newState(f *cnf.Formula) *state {
	s := &state{
		clauses: f.Clauses,
		assign:  make([]value, f.NumVars+1),
		numVars: f.NumVars,
	}
	return s
}

// clauseStatus classifies a clause under the current partial assignment.
type clauseStatus int

const (
	csSatisfied clauseStatus = iota
	csFalsified
	csUnit
	csOpen
)

// status returns the clause's state and, when csUnit, the forced literal.
func (s *state) status(c cnf.Clause) (clauseStatus, cnf.Lit) {
	var unit cnf.Lit
	unassignedCount := 0
	for _, l := range c {
		switch s.assign[l.Var()] {
		case unassigned:
			unassignedCount++
			unit = l
		default:
			if l.Sat(s.assign[l.Var()] == vTrue) {
				return csSatisfied, 0
			}
		}
	}
	switch unassignedCount {
	case 0:
		return csFalsified, 0
	case 1:
		return csUnit, unit
	default:
		return csOpen, 0
	}
}

// propagate runs unit propagation to fixpoint. It returns false on
// conflict, together with the list of variables it assigned (for
// backtracking).
func (s *state) propagate() (ok bool, trail []int) {
	for {
		progressed := false
		for _, c := range s.clauses {
			st, unit := s.status(c)
			switch st {
			case csFalsified:
				return false, trail
			case csUnit:
				s.assign[unit.Var()] = boolToValue(unit.Pos())
				trail = append(trail, unit.Var())
				progressed = true
			}
		}
		if !progressed {
			return true, trail
		}
	}
}

// undo reverts the assignments recorded in trail.
func (s *state) undo(trail []int) {
	for _, v := range trail {
		s.assign[v] = unassigned
	}
}

// allSatisfied reports whether every clause is satisfied outright.
func (s *state) allSatisfied() bool {
	for _, c := range s.clauses {
		if st, _ := s.status(c); st != csSatisfied {
			return false
		}
	}
	return true
}

// pickBranchVar chooses the unassigned variable occurring most often in
// non-satisfied clauses, preferring variables in the shortest open clause.
// Returns 0 when every variable is assigned or no open clause remains.
func (s *state) pickBranchVar() int {
	counts := make(map[int]int)
	bestLen := -1
	var shortClause cnf.Clause
	for _, c := range s.clauses {
		st, _ := s.status(c)
		if st == csSatisfied {
			continue
		}
		open := 0
		for _, l := range c {
			if s.assign[l.Var()] == unassigned {
				counts[l.Var()]++
				open++
			}
		}
		if open > 0 && (bestLen == -1 || open < bestLen) {
			bestLen = open
			shortClause = c
		}
	}
	if shortClause == nil {
		return 0
	}
	best, bestCount := 0, -1
	for _, l := range shortClause {
		v := l.Var()
		if s.assign[v] == unassigned && counts[v] > bestCount {
			best, bestCount = v, counts[v]
		}
	}
	return best
}

// model extracts a complete assignment, defaulting unassigned variables to
// false.
func (s *state) model() cnf.Assignment {
	a := cnf.NewAssignment(s.numVars)
	for v := 1; v <= s.numVars; v++ {
		a.Set(v, s.assign[v] == vTrue)
	}
	return a
}
