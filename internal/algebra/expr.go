// Package algebra implements project–join relational expressions: the
// query language studied by Cosmadakis (1983). An expression is built from
// relation-scheme operands using only projection (π) and natural join (∗);
// it denotes a function from databases to relations, whose output scheme is
// the paper's "target relation scheme" trs(φ).
//
// The package provides a validating AST, an evaluator with pluggable join
// algorithms and execution statistics, and a text syntax with a parser and
// printer:
//
//	pi[F1 F2 F3](T) * pi[F1 X1 X2 X3 Y{1,2} Y{1,3} S](T)
//
// Attribute tokens may contain any characters except whitespace and the
// delimiters "[", "]", "(", ")" and "*", so the paper's subscripted
// attributes such as Y{1,2} are ordinary tokens.
package algebra

import (
	"fmt"
	"slices"
	"strings"

	"relquery/internal/relation"
)

// Expr is a project–join relational expression. Implementations are
// Operand, Project and Join. An Expr is immutable after construction, so
// a composite node renders its text, collects its operands and words its
// span label once, when it is built; the accessors hand back the stored
// values, which callers must not modify.
type Expr interface {
	// Scheme returns the target relation scheme trs(e) of the expression.
	Scheme() relation.Scheme
	// Operands reports the distinct operand names referenced, in first-use
	// order.
	Operands() []string
	// String renders the expression in the package's text syntax.
	String() string

	// label is the node's header without its subtrees: what its trace span
	// and its EXPLAIN line are called.
	label() string
}

// Operand is a reference to a named database relation over a known scheme
// (the paper's relation-scheme operand).
type Operand struct {
	name     string
	scheme   relation.Scheme
	operands []string // the name, alone
}

// NewOperand builds an operand reference. The name must be non-empty.
func NewOperand(name string, scheme relation.Scheme) (*Operand, error) {
	if name == "" {
		return nil, fmt.Errorf("algebra: operand name must be non-empty")
	}
	return &Operand{name: name, scheme: scheme, operands: []string{name}}, nil
}

// MustOperand is NewOperand for statically known operands; it panics on
// error.
func MustOperand(name string, scheme relation.Scheme) *Operand {
	o, err := NewOperand(name, scheme)
	if err != nil {
		panic(err)
	}
	return o
}

// Name returns the operand's relation name.
func (o *Operand) Name() string { return o.name }

// Scheme implements Expr.
func (o *Operand) Scheme() relation.Scheme { return o.scheme }

// Operands implements Expr.
func (o *Operand) Operands() []string { return o.operands }

// String implements Expr.
func (o *Operand) String() string { return o.name }

func (o *Operand) label() string { return o.name }

// Project is the projection π_onto(of).
type Project struct {
	onto relation.Scheme
	of   Expr

	text, head string
}

// NewProject builds π_onto(of), checking that every attribute of onto
// occurs in of's target scheme.
func NewProject(onto relation.Scheme, of Expr) (*Project, error) {
	if of == nil {
		return nil, fmt.Errorf("algebra: projection of nil expression")
	}
	child := of.Scheme()
	for _, a := range onto.Attrs() {
		if !child.Has(a) {
			return nil, fmt.Errorf("algebra: cannot project onto %q: not in target scheme %v", a, child)
		}
	}
	head := "pi[" + onto.String() + "]"
	return &Project{onto: onto, of: of, text: head + "(" + of.String() + ")", head: head}, nil
}

// MustProject is NewProject for statically valid projections; it panics on
// error.
func MustProject(onto relation.Scheme, of Expr) *Project {
	p, err := NewProject(onto, of)
	if err != nil {
		panic(err)
	}
	return p
}

// Onto returns the projection's target scheme.
func (p *Project) Onto() relation.Scheme { return p.onto }

// Of returns the projected expression.
func (p *Project) Of() Expr { return p.of }

// Scheme implements Expr.
func (p *Project) Scheme() relation.Scheme { return p.onto }

// Operands implements Expr.
func (p *Project) Operands() []string { return p.of.Operands() }

// String implements Expr.
func (p *Project) String() string { return p.text }

func (p *Project) label() string { return p.head }

// Join is the natural join of two or more expressions, written
// e₁ ∗ e₂ ∗ … ∗ e_k. Nested joins are kept flat: the constructor splices
// Join arguments into the argument list, which is semantically transparent
// because natural join is associative.
type Join struct {
	args   []Expr
	scheme relation.Scheme

	text, head string
	operands   []string
}

// NewJoin builds the join of the given expressions. At least two arguments
// are required; use the expressions directly for fewer.
func NewJoin(args ...Expr) (*Join, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("algebra: join needs at least 2 arguments, got %d", len(args))
	}
	flat := make([]Expr, 0, len(args))
	for i, a := range args {
		if a == nil {
			return nil, fmt.Errorf("algebra: join argument %d is nil", i)
		}
		if j, ok := a.(*Join); ok {
			flat = append(flat, j.args...)
		} else {
			flat = append(flat, a)
		}
	}
	j := &Join{args: flat, scheme: flat[0].Scheme(), head: fmt.Sprintf("* (natural join, %d inputs)", len(flat))}
	// An argument is never itself a join, so the text needs no parentheses.
	var text strings.Builder
	for i, a := range flat {
		if i > 0 {
			j.scheme = j.scheme.Union(a.Scheme())
			text.WriteString(" * ")
		}
		text.WriteString(a.String())
		for _, name := range a.Operands() {
			if !slices.Contains(j.operands, name) {
				j.operands = append(j.operands, name)
			}
		}
	}
	j.text = text.String()
	return j, nil
}

// MustJoin is NewJoin for statically valid joins; it panics on error.
func MustJoin(args ...Expr) *Join {
	j, err := NewJoin(args...)
	if err != nil {
		panic(err)
	}
	return j
}

// JoinAll joins the expressions, returning the single expression unchanged
// when len(args) == 1.
func JoinAll(args ...Expr) (Expr, error) {
	switch len(args) {
	case 0:
		return nil, fmt.Errorf("algebra: JoinAll of zero expressions")
	case 1:
		return args[0], nil
	default:
		return NewJoin(args...)
	}
}

// Args returns the join's arguments (not a copy; do not modify).
func (j *Join) Args() []Expr { return j.args }

// Scheme implements Expr.
func (j *Join) Scheme() relation.Scheme { return j.scheme }

// Operands implements Expr.
func (j *Join) Operands() []string { return j.operands }

// String implements Expr.
func (j *Join) String() string { return j.text }

func (j *Join) label() string { return j.head }

// Equal reports structural equality of two expressions: same shape, same
// operand names and schemes (in order), same projection schemes (in
// order). Join argument order is significant, matching the written form.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case *Operand:
		y, ok := b.(*Operand)
		return ok && x.name == y.name && x.scheme.SameOrder(y.scheme)
	case *Project:
		y, ok := b.(*Project)
		return ok && x.onto.SameOrder(y.onto) && Equal(x.of, y.of)
	case *Join:
		y, ok := b.(*Join)
		if !ok || len(x.args) != len(y.args) {
			return false
		}
		for i := range x.args {
			if !Equal(x.args[i], y.args[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Size returns the number of AST nodes, a convenient measure of query
// complexity for the experiment tables.
func Size(e Expr) int {
	switch x := e.(type) {
	case *Operand:
		return 1
	case *Project:
		return 1 + Size(x.of)
	case *Join:
		n := 1
		for _, a := range x.args {
			n += Size(a)
		}
		return n
	default:
		return 0
	}
}
