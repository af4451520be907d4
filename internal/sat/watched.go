package sat

import (
	"fmt"
	"sort"

	"relquery/internal/cnf"
	"relquery/internal/governor"
)

// WatchedDPLL is an iterative DPLL solver with the two-watched-literals
// scheme: each clause watches two of its literals, and work happens only
// when a watched literal becomes false, making unit propagation cost
// proportional to the clauses actually touched instead of the whole
// formula. Backtracking is chronological (flip the deepest unflipped
// decision); there is no clause learning — the solver is meant as a
// faster, independently implemented cross-check for the recursive DPLL,
// not a CDCL competitor.
type WatchedDPLL struct {
	// Gov is ticked once per search round; nil is ungoverned.
	Gov *governor.Governor
}

// Name implements Solver.
func (WatchedDPLL) Name() string { return "watched" }

// Solve implements Solver.
func (w WatchedDPLL) Solve(f *cnf.Formula) (bool, cnf.Assignment, error) {
	s, sat, err := newWatchedSolver(f)
	if err != nil {
		return false, nil, err
	}
	if !sat {
		return false, nil, nil
	}
	s.gov = w.Gov
	// Assert the initial unit clauses; they are forced at the root, so a
	// conflict here (or while propagating them) is final.
	for _, l := range s.initUnits {
		if !s.enqueueAssign(l, false) {
			return false, nil, nil
		}
	}
	if !s.propagate() {
		if !s.backtrack() {
			return false, nil, nil
		}
	}
	found := s.search()
	if s.err != nil {
		return false, nil, s.err
	}
	if found {
		return true, s.modelOut(), nil
	}
	return false, nil, nil
}

// trailEntry records one assignment for backtracking.
type trailEntry struct {
	lit      cnf.Lit
	decision bool // a free choice (flippable) rather than a propagation
	flipped  bool // this decision's second polarity is already in play
}

type watchedSolver struct {
	numVars   int
	clauses   [][]cnf.Lit
	watches   [][2]int          // per clause: positions of the two watched literals
	watchers  map[cnf.Lit][]int // literal -> clauses watching it
	assign    []value           // 1-indexed variable values
	trail     []trailEntry
	queue     []cnf.Lit // propagation queue of literals just made true
	initUnits []cnf.Lit // unit clauses, asserted before the search starts
	varOrder  []int     // static decision order, most frequent first

	// gov is ticked once per search round; err latches the violation
	// that stopped the search.
	gov *governor.Governor
	err error
}

// newWatchedSolver loads the formula: deduplicates literals, drops
// tautological clauses, enqueues initial units, and reports sat=false
// immediately on an empty clause.
func newWatchedSolver(f *cnf.Formula) (*watchedSolver, bool, error) {
	s := &watchedSolver{
		numVars:  f.NumVars,
		watchers: make(map[cnf.Lit][]int),
		assign:   make([]value, f.NumVars+1),
	}
	freq := make(map[int]int)
	for _, raw := range f.Clauses {
		if raw.Tautological() {
			continue
		}
		c := dedupeLits(raw)
		switch len(c) {
		case 0:
			return nil, false, nil
		case 1:
			s.initUnits = append(s.initUnits, c[0])
		default:
			idx := len(s.clauses)
			s.clauses = append(s.clauses, c)
			s.watches = append(s.watches, [2]int{0, 1})
			s.watchers[c[0]] = append(s.watchers[c[0]], idx)
			s.watchers[c[1]] = append(s.watchers[c[1]], idx)
		}
		for _, l := range c {
			if l.Var() > f.NumVars || l == 0 {
				return nil, false, fmt.Errorf("sat: literal %v out of range", l)
			}
			freq[l.Var()]++
		}
	}
	s.varOrder = make([]int, 0, f.NumVars)
	for v := 1; v <= f.NumVars; v++ {
		s.varOrder = append(s.varOrder, v)
	}
	sort.SliceStable(s.varOrder, func(i, j int) bool {
		return freq[s.varOrder[i]] > freq[s.varOrder[j]]
	})
	return s, true, nil
}

func dedupeLits(c cnf.Clause) []cnf.Lit {
	seen := make(map[cnf.Lit]bool, len(c))
	out := make([]cnf.Lit, 0, len(c))
	for _, l := range c {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

func (s *watchedSolver) valueOf(l cnf.Lit) value {
	v := s.assign[l.Var()]
	if v == unassigned {
		return unassigned
	}
	if l.Sat(v == vTrue) {
		return vTrue
	}
	return vFalse
}

// enqueueAssign records l := true. It returns false when l is already
// false (conflict).
func (s *watchedSolver) enqueueAssign(l cnf.Lit, decision bool) bool {
	switch s.valueOf(l) {
	case vTrue:
		return true // already set; nothing to do
	case vFalse:
		return false
	}
	s.assign[l.Var()] = boolToValue(l.Pos())
	s.trail = append(s.trail, trailEntry{lit: l, decision: decision})
	s.queue = append(s.queue, l)
	return true
}

// propagate drains the queue, updating watches. It returns false on
// conflict (and clears the queue).
func (s *watchedSolver) propagate() bool {
	for len(s.queue) > 0 {
		l := s.queue[0]
		s.queue = s.queue[1:]
		falsified := l.Neg()
		watching := s.watchers[falsified]
		kept := watching[:0]
		for wi := 0; wi < len(watching); wi++ {
			ci := watching[wi]
			clause := s.clauses[ci]
			w := &s.watches[ci]
			// Identify which watch points at the falsified literal.
			self, other := 0, 1
			if clause[w[1]] == falsified {
				self, other = 1, 0
			}
			otherLit := clause[w[other]]
			if s.valueOf(otherLit) == vTrue {
				kept = append(kept, ci) // clause satisfied; keep watch
				continue
			}
			// Look for a replacement watch: a non-false literal that is
			// not the other watch.
			moved := false
			for pos, cand := range clause {
				if pos == w[other] || cand == falsified {
					continue
				}
				if s.valueOf(cand) != vFalse {
					w[self] = pos
					s.watchers[cand] = append(s.watchers[cand], ci)
					moved = true
					break
				}
			}
			if moved {
				continue // watch moved away; drop from this list
			}
			// No replacement: clause is unit on otherLit, or in conflict.
			kept = append(kept, ci)
			if s.valueOf(otherLit) == vFalse {
				s.watchers[falsified] = append(kept, watching[wi+1:]...)
				s.queue = s.queue[:0]
				return false
			}
			if !s.enqueueAssign(otherLit, false) {
				s.watchers[falsified] = append(kept, watching[wi+1:]...)
				s.queue = s.queue[:0]
				return false
			}
		}
		s.watchers[falsified] = kept
	}
	return true
}

// search runs the DPLL loop: propagate, decide, backtrack on conflict.
func (s *watchedSolver) search() bool {
	for {
		if err := s.gov.Tick(); err != nil {
			s.err = err
			return false
		}
		if !s.propagate() {
			if !s.backtrack() {
				return false
			}
			continue
		}
		v := s.pickVar()
		if v == 0 {
			return true // all variables assigned, no conflict
		}
		// Decide: try true first.
		if !s.enqueueAssign(cnf.Lit(v), true) {
			// Cannot happen: v is unassigned.
			return false
		}
	}
}

// pickVar returns the first unassigned variable in static order, or 0.
func (s *watchedSolver) pickVar() int {
	for _, v := range s.varOrder {
		if s.assign[v] == unassigned {
			return v
		}
	}
	return 0
}

// backtrack undoes the trail to the deepest unflipped decision, asserts
// its negation, and returns false when no decision remains (UNSAT).
func (s *watchedSolver) backtrack() bool {
	for len(s.trail) > 0 {
		last := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.assign[last.lit.Var()] = unassigned
		if last.decision && !last.flipped {
			flipped := last.lit.Neg()
			s.assign[flipped.Var()] = boolToValue(flipped.Pos())
			s.trail = append(s.trail, trailEntry{lit: flipped, decision: true, flipped: true})
			s.queue = append(s.queue[:0], flipped)
			return true
		}
	}
	return false
}

// modelOut extracts the satisfying assignment; unconstrained variables
// default to false.
func (s *watchedSolver) modelOut() cnf.Assignment {
	a := cnf.NewAssignment(s.numVars)
	for v := 1; v <= s.numVars; v++ {
		a.Set(v, s.assign[v] == vTrue)
	}
	return a
}
