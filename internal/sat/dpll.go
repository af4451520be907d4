package sat

import (
	"relquery/internal/cnf"
	"relquery/internal/governor"
)

// DPLL is a Davis–Putnam–Logemann–Loveland solver: depth-first search with
// unit propagation, pure-literal elimination and a most-occurrences
// branching heuristic. It handles arbitrary CNF, not just 3CNF.
type DPLL struct {
	// Gov is ticked once per search node; nil is ungoverned.
	Gov *governor.Governor
}

// Name implements Solver.
func (DPLL) Name() string { return "dpll" }

// Solve implements Solver.
func (d DPLL) Solve(f *cnf.Formula) (bool, cnf.Assignment, error) {
	s := newState(f)
	s.gov = d.Gov
	sat := solve(s)
	if s.err != nil {
		return false, nil, s.err
	}
	if sat {
		return true, s.model(), nil
	}
	return false, nil, nil
}

func solve(s *state) bool {
	if s.err != nil {
		return false
	}
	if err := s.gov.Tick(); err != nil {
		s.err = err
		return false
	}
	ok, trail := s.propagate()
	if !ok {
		s.undo(trail)
		return false
	}
	pureTrail := s.assignPureLiterals()
	trail = append(trail, pureTrail...)

	if s.allSatisfied() {
		return true
	}
	v := s.pickBranchVar()
	if v == 0 {
		// No open clause remains but not all satisfied: conflict.
		s.undo(trail)
		return false
	}
	for _, val := range [2]value{vTrue, vFalse} {
		s.assign[v] = val
		if solve(s) {
			return true
		}
		s.assign[v] = unassigned
	}
	s.undo(trail)
	return false
}

// assignPureLiterals assigns every variable that occurs with a single
// polarity among non-satisfied clauses, repeating to fixpoint. This is a
// satisfiability-preserving (but not model-count-preserving) reduction, so
// it is used by the solver but not by the counter or enumerator.
func (s *state) assignPureLiterals() []int {
	var trail []int
	for {
		polarity := make(map[int]int8) // 1 pos, 2 neg, 3 both
		for _, c := range s.clauses {
			if st, _ := s.status(c); st == csSatisfied {
				continue
			}
			for _, l := range c {
				if s.assign[l.Var()] != unassigned {
					continue
				}
				if l.Pos() {
					polarity[l.Var()] |= 1
				} else {
					polarity[l.Var()] |= 2
				}
			}
		}
		progressed := false
		for v, p := range polarity {
			if p == 1 || p == 2 {
				s.assign[v] = boolToValue(p == 1)
				trail = append(trail, v)
				progressed = true
			}
		}
		if !progressed {
			return trail
		}
	}
}
