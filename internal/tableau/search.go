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
	var first []Var
	var fixed []relation.Value
	conflict := false
	for i, v := range t.Summary {
		pos, _ := nt.Scheme.Pos(t.Target.Attr(i))
		if at := slices.Index(first, v); at >= 0 {
			conflict = conflict || fixed[at] != nt.Vals[pos]
			continue
		}
		first, fixed = append(first, v), append(fixed, nt.Vals[pos])
	}
	q, err := t.compile(db, first)
	if err != nil || conflict {
		return false, err
	}
	found := false
	err = join.Search(gov, q.rels, q.vars, q.order, fixed, func([]relation.Value) bool {
		found = true
		return false
	})
	return found, err
}

// Stream enumerates the tuples of φ(db), calling yield for each summary
// image of a valuation, in the generic join's own attribute order. Within
// one Stream call duplicate tuples MAY be yielded (distinct valuations
// can share a summary image), so callers needing set semantics must
// deduplicate; callers searching for a witness (e.g. "is there a result
// tuple outside r?") can stop early by returning false. Every yielded
// tuple is freshly allocated: yield may keep it. gov, when non-nil, is
// checked on entry and ticked per candidate value, so a violation aborts
// the enumeration — including time spent in dead branches between yields
// — and surfaces as the typed error.
func (t *Tableau) Stream(db relation.Database, gov *governor.Governor, yield func(relation.Tuple) bool) error {
	q, err := t.compile(db, nil)
	if err != nil {
		return err
	}
	summary := make([]int, len(t.Summary))
	for i, v := range t.Summary {
		summary[i], _ = q.order.Pos(name(v))
	}
	return join.Search(gov, q.rels, q.vars, q.order, nil, func(bind []relation.Value) bool {
		tp := make(relation.Tuple, len(summary))
		for i, c := range summary {
			tp[i] = bind[c]
		}
		return yield(tp)
	})
}

// Eval materializes φ(db) from the tableau — an alternative to
// algebra.Eval that never holds intermediate join results: its space is
// bounded by the operands' projections, their tries and the output.
func (t *Tableau) Eval(db relation.Database) (*relation.Relation, error) {
	out := relation.New(t.Target)
	err := t.Stream(db, nil, func(tp relation.Tuple) bool {
		out.MustAdd(tp)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
