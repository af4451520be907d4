package tableau

import (
	"fmt"
	"slices"
	"strconv"

	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/relation"
)

// query is a tableau compiled onto the generic join's search
// (join.Search): one atom per row, reading its operand's projection onto
// the row's relevant positions, with the columns named by the row's
// variables. A position is relevant when its variable is in the summary
// or occurs at least twice in the tableau; every other variable is an
// existential don't-care, and projecting it away keeps the search from
// multiplying its bindings by the values of columns nobody reads. Rows
// over one operand are a self-join: several atoms over one projection.
type query struct {
	rels  []*relation.Relation
	vars  []relation.Scheme
	order relation.Scheme // the search's attribute order
}

// compile returns the tableau's query over db. Its attribute order is
// first, then the atoms' variables in their left-to-right union. The
// atoms' relations are Relation.Projection facts of db's relations, so
// their tries are facts too and a repeated question over one database
// sorts nothing.
func (t *Tableau) compile(db relation.Database, first []Var) (query, error) {
	occ := make(map[Var]int, t.nextVar) // a summary variable counts twice: it is always relevant
	for _, v := range t.Summary {
		occ[v] += 2
	}
	for _, row := range t.Rows {
		for _, v := range row.Vars {
			occ[v]++
		}
	}
	q := query{rels: make([]*relation.Relation, len(t.Rows)), vars: make([]relation.Scheme, len(t.Rows))}
	order, placed := slices.Clone(first), make(map[Var]bool, t.nextVar)
	for _, v := range first {
		placed[v] = true
	}
	for i, row := range t.Rows {
		r, err := db.Get(row.Operand)
		if err != nil {
			return query{}, err
		}
		if !r.Scheme().Equal(row.Scheme) {
			return query{}, fmt.Errorf("tableau: operand %q declared over %v but database relation has scheme %v",
				row.Operand, row.Scheme, r.Scheme())
		}
		var attrs []relation.Attribute
		var vars []Var
		for k, v := range row.Vars {
			if occ[v] >= 2 {
				attrs, vars = append(attrs, row.Scheme.Attr(k)), append(vars, v)
				if !placed[v] {
					order, placed[v] = append(order, v), true
				}
			}
		}
		if q.rels[i], err = r.Projection(relation.MustScheme(attrs...)); err != nil {
			return query{}, err
		}
		if q.vars[i], err = names(vars); err != nil { // a variable unified across two of its attributes
			return query{}, fmt.Errorf("tableau: row over %q: %w", row.Operand, err)
		}
	}
	var err error
	q.order, err = names(order)
	return q, err
}

// names returns the scheme whose attributes name the variables vs.
func names(vs []Var) (relation.Scheme, error) {
	attrs := make([]relation.Attribute, len(vs))
	for i, v := range vs {
		attrs[i] = name(v)
	}
	return relation.NewScheme(attrs...)
}

func name(v Var) relation.Attribute { return relation.Attribute(strconv.Itoa(int(v))) }

// output returns the summary's distinct variables, in target order — the
// search's output prefix — and for each target column the position of its
// variable among them.
func (t *Tableau) output() (first []Var, cols []int) {
	cols = make([]int, len(t.Summary))
	for i, v := range t.Summary {
		if cols[i] = slices.Index(first, v); cols[i] < 0 {
			cols[i], first = len(first), append(first, v)
		}
	}
	return first, cols
}

// Member reports whether the named tuple belongs to φ(db), where the
// tableau represents φ. This is the paper's Proposition 2 algorithm: fix
// the summary to t and search for a valuation (the NP guess, realized as
// backtracking). The search binds the summary's variables first, fixed to
// t's values, and stops at the first binding; gov, when non-nil, is
// checked on entry and ticked per candidate value, so a deadline or
// cancellation aborts an exponential search with the typed violation.
func (t *Tableau) Member(nt relation.NamedTuple, db relation.Database, gov *governor.Governor) (bool, error) {
	if !nt.Scheme.Equal(t.Target) {
		return false, fmt.Errorf("tableau: tuple scheme %v does not match target %v", nt.Scheme, t.Target)
	}
	// Two target attributes may share a summary variable; conflicting
	// values for it mean the tuple cannot be in the result.
	first, cols := t.output()
	fixed := make([]relation.Value, len(first))
	conflict := false
	for i, c := range cols {
		pos, _ := nt.Scheme.Pos(t.Target.Attr(i))
		if slices.Index(cols, c) == i {
			fixed[c] = nt.Vals[pos]
		} else {
			conflict = conflict || fixed[c] != nt.Vals[pos]
		}
	}
	q, err := t.compile(db, first)
	if err != nil || conflict {
		return false, err
	}
	out, err := names(first)
	if err != nil {
		return false, err
	}
	found := false
	err = join.Search(gov, q.rels, q.vars, q.order, out, fixed, func([]relation.Value) bool {
		found = true
		return false
	})
	return found, err
}

// Stream enumerates φ(db): it calls yield once for each tuple until yield
// returns false. The search runs in the atoms' order and, once the
// summary's last variable is bound, looks for one valuation of the rest
// and backtracks (join.Search). When the summary's variables lead that
// order, in target order — an unprojected query's do — no tuple can
// repeat: the tuples come in ascending order and nothing is remembered,
// so Stream holds the query and its tries whatever the number of tuples.
// Otherwise a set of the tuples yielded skips the repeats. Binding the
// summary first would need no set, but it is exponentially slower on the
// paper's π_Y(φ_G) (EXPERIMENTS.md, "One projected join node"). The tuple
// yielded is one the stream reuses: yield must Clone what it keeps. gov,
// when non-nil, is checked on entry and ticked per candidate value, so a
// violation aborts the enumeration — including time spent in dead
// branches between yields — and surfaces as the typed error.
func (t *Tableau) Stream(db relation.Database, gov *governor.Governor, yield func(relation.Tuple) bool) error {
	_, err := t.stream(db, gov, yield)
	return err
}

// stream is Stream, reporting whether the tuples came in ascending order.
func (t *Tableau) stream(db relation.Database, gov *governor.Governor, yield func(relation.Tuple) bool) (ordered bool, err error) {
	first, summary := t.output()
	q, err := t.compile(db, nil)
	if err != nil {
		return false, err
	}
	out, err := names(first)
	if err != nil {
		return false, err
	}
	ordered = true
	for i := range first {
		ordered = ordered && q.order.Attr(i) == out.Attr(i)
	}
	tp := make(relation.Tuple, len(summary))
	return ordered, join.Search(gov, q.rels, q.vars, q.order, out, nil, func(row []relation.Value) bool {
		for i, c := range summary {
			tp[i] = row[c]
		}
		return yield(tp)
	})
}

// Eval materializes φ(db) from the tableau — an alternative to
// algebra.Eval that never holds intermediate join results: its space is
// bounded by the operands' projections, their tries and the output, which
// Stream yields distinct, so it is built without a set — and born sorted
// when it came in order.
func (t *Tableau) Eval(db relation.Database) (*relation.Relation, error) {
	b := relation.NewBuilder(t.Target, -1)
	ordered, err := t.stream(db, nil, b.Row)
	if err != nil {
		return nil, err
	}
	if ordered {
		return b.SortedRelation(), nil
	}
	return b.Relation(), nil
}
