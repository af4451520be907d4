package tableau

import (
	"fmt"

	"relquery/internal/governor"
	"relquery/internal/relation"
)

// SearchOptions disable individual search optimizations, for ablation
// studies (BenchmarkTableauAblation). The zero value is the fully
// optimized search; production callers should not need this type.
type SearchOptions struct {
	// StaticOrder visits rows in tableau order instead of dynamically
	// picking the most constrained row with forward checking.
	StaticOrder bool
	// NoProjectionPushdown makes every row iterate whole source tuples
	// instead of distinct projections onto its relevant attributes.
	NoProjectionPushdown bool
}

// valuationSearch is the backtracking engine behind membership testing and
// streaming enumeration: it assigns each row to a tuple of its operand's
// relation, consistently with a partial variable binding, and reports each
// complete valuation's summary image.
//
// Two classic optimizations keep the search tree close to the number of
// actual results (SearchOptions can disable each for ablation):
//
//   - Projection pushdown. Only a row's RELEVANT positions matter — those
//     whose variable occurs in the summary or in more than one place. All
//     other variables are existential don't-cares, so each row iterates
//     the DISTINCT projections of its relation onto its relevant
//     attributes rather than whole tuples. Without this, every
//     projected-away column multiplies the valuation count (disastrously
//     so for the paper's product gadget R_G ∗ R_{G′}).
//
//   - Dynamic most-constrained-row-first ordering with forward checking:
//     at every node the search recounts each unassigned row's compatible
//     patterns under the current binding, descends into the row with the
//     fewest, and abandons the node as soon as any row has none.
//
// Space stays bounded by the reduced inputs plus the recursion stack; time
// may still be exponential, which is exactly what the paper proves
// unavoidable.
type valuationSearch struct {
	t       *Tableau
	rows    []searchRow
	binding map[Var]relation.Value
	done    []bool
	opts    SearchOptions
	// gov, when non-nil, is polled at every search node: the valuation
	// tree is the paper's exponential object, so without a checkpoint
	// inside it a deadline or cancellation could never interrupt a
	// membership test. govErr latches the violation that stopped the
	// search.
	gov    *governor.Governor
	govErr error
}

// searchRow is one tableau row reduced to its relevant positions.
type searchRow struct {
	// vars are the row's relevant variables; patterns[i][k] is the value
	// variable vars[k] takes under the row's i-th distinct pattern.
	vars     []Var
	patterns []relation.Tuple
}

func newSearch(t *Tableau, db relation.Database, opts SearchOptions) (*valuationSearch, error) {
	s := &valuationSearch{
		t:       t,
		rows:    make([]searchRow, len(t.Rows)),
		binding: make(map[Var]relation.Value),
		done:    make([]bool, len(t.Rows)),
		opts:    opts,
	}

	// A variable is relevant when it appears in the summary or in two or
	// more positions across the tableau.
	occ := make(map[Var]int)
	for _, row := range t.Rows {
		for _, v := range row.Vars {
			occ[v]++
		}
	}
	relevant := make(map[Var]bool)
	for _, v := range t.Summary {
		relevant[v] = true
	}
	for v, n := range occ {
		if n >= 2 {
			relevant[v] = true
		}
	}

	for i, row := range t.Rows {
		r, err := db.Get(row.Operand)
		if err != nil {
			return nil, err
		}
		if !r.Scheme().Equal(row.Scheme) {
			return nil, fmt.Errorf("tableau: operand %q declared over %v but database relation has scheme %v",
				row.Operand, row.Scheme, r.Scheme())
		}
		var vars []Var
		var cols []int
		for k := 0; k < row.Scheme.Len(); k++ {
			if opts.NoProjectionPushdown || relevant[row.Vars[k]] {
				vars = append(vars, row.Vars[k])
				p, _ := r.Scheme().Pos(row.Scheme.Attr(k))
				cols = append(cols, p)
			}
		}
		// Distinct projections onto the relevant columns.
		var seen relation.TupleSet
		var patterns []relation.Tuple
		r.Each(func(tuple relation.Tuple) bool {
			proj := make(relation.Tuple, len(cols))
			for k, c := range cols {
				proj[k] = tuple[c]
			}
			if _, fresh := seen.Add(proj); fresh {
				patterns = append(patterns, proj)
			}
			return true
		})
		s.rows[i] = searchRow{vars: vars, patterns: patterns}
	}
	return s, nil
}

// compatible reports whether pattern can be row i's image under the
// current binding.
func (s *valuationSearch) compatible(i int, pattern relation.Tuple) bool {
	row := s.rows[i]
	for k, v := range row.vars {
		if bound, has := s.binding[v]; has && bound != pattern[k] {
			return false
		}
	}
	return true
}

// candidates counts row i's compatible patterns, stopping at limit.
func (s *valuationSearch) candidates(i, limit int) int {
	count := 0
	//lint:ungoverned one scan of one row's patterns per search node; run ticks once per node, before pickRow calls this
	for _, p := range s.rows[i].patterns {
		if s.compatible(i, p) {
			count++
			if count >= limit {
				break
			}
		}
	}
	return count
}

// pickRow returns the unassigned row with the fewest compatible patterns,
// or -1 when every row is assigned. failed reports a row with zero
// candidates (dead branch).
func (s *valuationSearch) pickRow() (best int, failed bool) {
	best = -1
	bestCount := 0
	for i := range s.rows {
		if s.done[i] {
			continue
		}
		limit := bestCount
		if best == -1 {
			limit = len(s.rows[i].patterns) + 1
		}
		c := s.candidates(i, limit+1)
		if c == 0 {
			return i, true
		}
		if best == -1 || c < bestCount {
			best, bestCount = i, c
			if c == 1 {
				break // cannot do better
			}
		}
	}
	return best, false
}

// run explores valuations; yield is invoked on each complete valuation and
// returns false to stop the search. run reports whether the search ran to
// completion (false means yield stopped it).
func (s *valuationSearch) run(yield func() bool) bool {
	if err := s.gov.Tick(); err != nil {
		s.govErr = err
		return false
	}
	var i int
	if s.opts.StaticOrder {
		i = -1
		for k := range s.rows {
			if !s.done[k] {
				i = k
				break
			}
		}
	} else {
		var failed bool
		i, failed = s.pickRow()
		if failed {
			return true
		}
	}
	if i == -1 {
		return yield()
	}
	s.done[i] = true
	row := s.rows[i]
	cont := true
	for _, pattern := range row.patterns {
		var assigned []Var
		ok := true
		for k, v := range row.vars {
			val := pattern[k]
			if bound, has := s.binding[v]; has {
				if bound != val {
					ok = false
					break
				}
				continue
			}
			s.binding[v] = val
			assigned = append(assigned, v)
		}
		if ok {
			if !s.run(yield) {
				cont = false
			}
		}
		for _, v := range assigned {
			delete(s.binding, v)
		}
		if !cont {
			break
		}
	}
	s.done[i] = false
	return cont
}

// summaryTuple reads the summary's image under the current binding.
func (s *valuationSearch) summaryTuple() relation.Tuple {
	out := make(relation.Tuple, len(s.t.Summary))
	for i, v := range s.t.Summary {
		out[i] = s.binding[v]
	}
	return out
}

// Member reports whether the named tuple belongs to φ(db), where the
// tableau represents φ. This is the paper's Proposition 2 algorithm: bind
// the summary to t and search for a valuation (the NP guess, realized as
// backtracking).
func (t *Tableau) Member(nt relation.NamedTuple, db relation.Database) (bool, error) {
	return t.MemberGov(nt, db, nil)
}

// MemberGov is Member under a governor: the backtracking search polls
// gov at every node, so a deadline, cancellation or sticky failure
// aborts the (potentially exponential) valuation search with the typed
// violation instead of running it to exhaustion. A nil governor is the
// ungoverned Member.
func (t *Tableau) MemberGov(nt relation.NamedTuple, db relation.Database, gov *governor.Governor) (bool, error) {
	if !nt.Scheme.Equal(t.Target) {
		return false, fmt.Errorf("tableau: tuple scheme %v does not match target %v", nt.Scheme, t.Target)
	}
	s, err := newSearch(t, db, SearchOptions{})
	if err != nil {
		return false, err
	}
	s.gov = gov
	// Pre-bind summary variables to the tuple's values. Two target
	// attributes may share a summary variable; conflicting requirements
	// mean the tuple cannot be in the result.
	for i := 0; i < nt.Scheme.Len(); i++ {
		a := nt.Scheme.Attr(i)
		pos, _ := t.Target.Pos(a)
		v := t.Summary[pos]
		if prev, ok := s.binding[v]; ok && prev != nt.Vals[i] {
			return false, nil
		}
		s.binding[v] = nt.Vals[i]
	}
	found := false
	s.run(func() bool {
		found = true
		return false
	})
	if s.govErr != nil {
		return false, s.govErr
	}
	return found, nil
}

// Stream enumerates the tuples of φ(db) by exhausting all valuations,
// calling yield for each summary image. Within one Stream call, duplicate
// tuples MAY still be yielded (distinct valuations can share a summary
// image), so callers needing set semantics must deduplicate; callers
// searching for a witness (e.g. "is there a result tuple outside r?") can
// stop early by returning false. Every yielded tuple is freshly
// allocated: yield may keep it without copying.
func (t *Tableau) Stream(db relation.Database, yield func(relation.Tuple) bool) error {
	return t.StreamGov(db, nil, yield)
}

// StreamGov is Stream under a governor, polled at every search node: a
// violation aborts the enumeration — including time spent in dead
// branches between yields, which per-yield checkpoints cannot see — and
// surfaces as the typed error. A nil governor is the ungoverned Stream.
func (t *Tableau) StreamGov(db relation.Database, gov *governor.Governor, yield func(relation.Tuple) bool) error {
	s, err := newSearch(t, db, SearchOptions{})
	if err != nil {
		return err
	}
	s.gov = gov
	s.run(func() bool {
		return yield(s.summaryTuple())
	})
	return s.govErr
}

// Eval materializes φ(db) from the tableau — an alternative to
// algebra.Eval that never holds intermediate join results: its space is
// bounded by the inputs and the output, at the price of exploring the
// valuation tree.
func (t *Tableau) Eval(db relation.Database) (*relation.Relation, error) {
	return t.EvalWith(db, SearchOptions{})
}

// EvalWith is Eval with explicit search options — the ablation hook.
func (t *Tableau) EvalWith(db relation.Database, opts SearchOptions) (*relation.Relation, error) {
	s, err := newSearch(t, db, opts)
	if err != nil {
		return nil, err
	}
	out := relation.New(t.Target)
	var addErr error
	s.run(func() bool {
		_, addErr = out.Add(s.summaryTuple())
		return addErr == nil
	})
	if addErr != nil {
		return nil, addErr
	}
	return out, nil
}
