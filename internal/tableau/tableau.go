// Package tableau implements tableaux for project–join expressions in the
// style of Aho, Sagiv and Ullman (1979), the machinery behind the paper's
// Proposition 2 ("testing whether t ∈ φ(R) is in NP ... one may consider
// the tableau corresponding to φ, and guess a valuation showing that
// t ∈ φ(R)").
//
// A tableau has one row per operand occurrence of the expression, each row
// holding one variable per attribute of the operand's scheme, plus a
// summary assigning a variable to every attribute of the target scheme.
// The expression's value is
//
//	φ(db) = { ρ(summary) : ρ maps variables to values such that every
//	          row's image is a tuple of its operand's relation }.
//
// The package builds the tableau of an algebra.Expr and keeps what stays
// symbolic: canonical databases, and Chandra–Merlin homomorphism
// containment and minimization of queries. Evaluating a query — the
// simulated NP guess of membership and the stream under the Dᵖ/Π₂ᵖ
// deciders — is package decide's, on the evaluator's generic join.
package tableau

import (
	"fmt"
	"sort"
	"strings"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// Var is a tableau variable. Variables are scoped to one attribute: the
// construction only ever identifies variables appearing under the same
// attribute name, so a valuation never needs to compare values across
// columns (matching the paper's disjoint-domain convention).
type Var int

// Row is one tableau row: a pattern of variables over an operand's scheme.
type Row struct {
	// Operand names the database relation the row must map into.
	Operand string
	// Scheme is the operand's relation scheme.
	Scheme relation.Scheme
	// Vars holds one variable per scheme attribute, aligned by position.
	Vars []Var
}

// Tableau is a tableau with its summary.
type Tableau struct {
	// Target is the expression's target scheme trs(φ).
	Target relation.Scheme
	// Summary holds one variable per target attribute, aligned by
	// position. Every summary variable occurs in at least one row.
	Summary []Var
	// Rows are the operand rows.
	Rows []Row

	nextVar Var
}

// New builds the tableau of a project–join expression.
func New(e algebra.Expr) (*Tableau, error) {
	t := &Tableau{nextVar: 1}
	summary, err := t.build(e)
	if err != nil {
		return nil, err
	}
	t.Target = e.Scheme()
	t.Summary = make([]Var, t.Target.Len())
	for i := 0; i < t.Target.Len(); i++ {
		v, ok := summary[t.Target.Attr(i)]
		if !ok {
			return nil, fmt.Errorf("tableau: internal error: no summary variable for %q", t.Target.Attr(i))
		}
		t.Summary[i] = v
	}
	return t, nil
}

// build constructs rows for e and returns the summary map of e's target
// scheme.
func (t *Tableau) build(e algebra.Expr) (map[relation.Attribute]Var, error) {
	switch x := e.(type) {
	case *algebra.Operand:
		s := x.Scheme()
		row := Row{Operand: x.Name(), Scheme: s, Vars: make([]Var, s.Len())}
		summary := make(map[relation.Attribute]Var, s.Len())
		for i := 0; i < s.Len(); i++ {
			row.Vars[i] = t.fresh()
			summary[s.Attr(i)] = row.Vars[i]
		}
		t.Rows = append(t.Rows, row)
		return summary, nil

	case *algebra.Project:
		inner, err := t.build(x.Of())
		if err != nil {
			return nil, err
		}
		summary := make(map[relation.Attribute]Var, x.Onto().Len())
		for _, a := range x.Onto().Attrs() {
			v, ok := inner[a]
			if !ok {
				return nil, fmt.Errorf("tableau: internal error: projection attribute %q missing", a)
			}
			summary[a] = v
		}
		return summary, nil

	case *algebra.Join:
		var summary map[relation.Attribute]Var
		for _, arg := range x.Args() {
			argSummary, err := t.build(arg)
			if err != nil {
				return nil, err
			}
			if summary == nil {
				summary = argSummary
				continue
			}
			// Natural join: identify summary variables of shared
			// attributes across the whole tableau built so far.
			for a, v := range argSummary {
				if existing, ok := summary[a]; ok {
					t.Unify(v, existing)
				} else {
					summary[a] = v
				}
			}
		}
		return summary, nil

	default:
		return nil, fmt.Errorf("tableau: unknown expression type %T", e)
	}
}

func (t *Tableau) fresh() Var {
	v := t.nextVar
	t.nextVar++
	return v
}

// String renders the tableau with the summary first, e.g.
//
//	summary [A B]: v1 v2
//	row T [A B C]: v1 v3 v4
func (t *Tableau) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "summary [%v]:", t.Target)
	for _, v := range t.Summary {
		fmt.Fprintf(&b, " v%d", v)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "row %s [%v]:", row.Operand, row.Scheme)
		for _, v := range row.Vars {
			fmt.Fprintf(&b, " v%d", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Vars returns the distinct variables of the tableau in ascending order.
func (t *Tableau) Vars() []Var {
	seen := make(map[Var]bool)
	for _, row := range t.Rows {
		for _, v := range row.Vars {
			seen[v] = true
		}
	}
	out := make([]Var, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Unify replaces variable from with variable to throughout the tableau —
// rows and summary. It is how a natural join identifies the variables of
// shared attributes, and the primitive the FD chase (package deps) is
// built on.
func (t *Tableau) Unify(from, to Var) {
	if from == to {
		return
	}
	for _, row := range t.Rows {
		for i, v := range row.Vars {
			if v == from {
				row.Vars[i] = to
			}
		}
	}
	for i, v := range t.Summary {
		if v == from {
			t.Summary[i] = to
		}
	}
}

// Clone returns a deep, independent copy of the tableau.
func (t *Tableau) Clone() *Tableau {
	c := &Tableau{
		Target:  t.Target,
		Summary: append([]Var(nil), t.Summary...),
		Rows:    make([]Row, len(t.Rows)),
		nextVar: t.nextVar,
	}
	for i, r := range t.Rows {
		c.Rows[i] = Row{Operand: r.Operand, Scheme: r.Scheme, Vars: append([]Var(nil), r.Vars...)}
	}
	return c
}
