// Package reduction implements the constructions of Cosmadakis (1983):
// the relation R_G and project–join expression φ_G built from a 3CNF
// formula G (Section 3), the satisfying-assignment relation R̃_G and tuple
// u_G of Lemma 1 and Proposition 1, the product instance of Theorems 1–2,
// and the variant relations R'_G (with per-clause falsifier rows and a U
// column) and R”_G of Theorems 4–5.
//
// Layout of R_G for G = F₁…F_m over variables x₁…x_n (paper p. 105):
//
//	columns  F1 … Fm | X1 … Xn | Y{1,2} … Y{1,m} … Y{m-1,m} | S
//
// For each clause F_j there are seven rows μ_jk, one per satisfying local
// assignment h_jk of the clause: F_j=1 and F_l=e (l≠j); X_{j_i}=h_jk(x_{j_i})
// and X_l=e for other variables; Y{i,l}=x when j ∈ {i,l}, else e; S=a.
// A final row ν has every F_j=1, S=b and e elsewhere. |R_G| = 7m + 1.
//
// The expression is φ_G = π_F(T) ∗ ∏*_j π_{T_j}(T) with
// T_j = F_j X_{j1} X_{j2} X_{j3} Y{j,1} … Y{j,m} S.
//
// Lemma 1: φ_G(R_G) = R_G ∪ R̃_G, where R̃_G holds one row per satisfying
// assignment of G (all F=1, all Y=x, S=a, X columns spelling the
// assignment). Every complexity result in the paper is a corollary.
package reduction

import (
	"fmt"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/relation"
	"relquery/internal/sat"
)

// Value symbols used by the construction. The paper remarks (p. 106) that
// reusing the same symbol in different columns is irrelevant, since values
// are only compared within a column.
const (
	val0 = relation.Value("0")
	val1 = relation.Value("1")
	valE = relation.Value("e")
	valX = relation.Value("x")
	valA = relation.Value("a")
	valB = relation.Value("b")
	valC = relation.Value("c") // U column of non-falsifier rows (Theorem 4)
)

// Variant selects which relation the construction builds.
type Variant int

const (
	// Plain is the paper's R_G: 7 satisfier rows per clause plus ν.
	Plain Variant = iota
	// WithFalsifiers is the paper's R''_G (Theorem 5): R_G plus one
	// falsifier row ξ_j per clause.
	WithFalsifiers
	// WithFalsifiersAndU is the paper's R'_G (Theorem 4): R''_G plus a U
	// column where ξ_j has the clause-specific value c_j and every other
	// row has c.
	WithFalsifiersAndU
)

// String returns the variant's paper name.
func (v Variant) String() string {
	switch v {
	case Plain:
		return "R_G"
	case WithFalsifiers:
		return "R''_G"
	case WithFalsifiersAndU:
		return "R'_G"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Construction packages a formula G with its gadget relation and the
// attribute bookkeeping needed to form the paper's expressions. Build it
// with New or NewVariant.
type Construction struct {
	// G is the source formula, in the paper's reduction form (3CNF, at
	// least three clauses, distinct variables per clause).
	G *cnf.Formula
	// Variant records which relation was built.
	Variant Variant
	// R is the constructed relation (R_G, R'_G or R''_G).
	R *relation.Relation

	suffix  string
	scheme  relation.Scheme
	operand string
}

// New builds the paper's R_G for f.
func New(f *cnf.Formula) (*Construction, error) {
	return build(f, Plain, "")
}

// NewVariant builds the chosen relation variant for f.
func NewVariant(f *cnf.Formula, v Variant) (*Construction, error) {
	return build(f, v, "")
}

// NewSuffixed builds R_G with every attribute (and the operand name)
// carrying the given suffix, e.g. "'" for the primed copy that Theorem 1
// joins with the unprimed one. Suffixes must not contain whitespace or the
// expression delimiters []()*.
func NewSuffixed(f *cnf.Formula, suffix string) (*Construction, error) {
	return build(f, Plain, suffix)
}

func build(f *cnf.Formula, v Variant, suffix string) (*Construction, error) {
	if err := f.CheckReductionForm(); err != nil {
		return nil, err
	}
	if !f.AllVarsUsed() {
		return nil, fmt.Errorf("reduction: every variable must occur in some clause (the paper defines x1..xn as the variables appearing in G); apply cnf.Compact first")
	}
	for _, r := range suffix {
		switch r {
		case ' ', '\t', '\n', '\r', '[', ']', '(', ')', '*':
			return nil, fmt.Errorf("reduction: suffix %q contains a reserved character", suffix)
		}
	}
	c := &Construction{G: f, Variant: v, suffix: suffix, operand: "T" + suffix}
	var err error
	c.scheme, err = c.buildScheme()
	if err != nil {
		return nil, err
	}
	c.R, err = c.buildRelation()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// M returns the clause count m.
func (c *Construction) M() int { return c.G.NumClauses() }

// N returns the variable count n.
func (c *Construction) N() int { return c.G.NumVars }

// OperandName returns the name ("T", possibly suffixed) under which R is
// installed in databases and referenced by the expressions.
func (c *Construction) OperandName() string { return c.operand }

// Scheme returns the full relation scheme T of R.
func (c *Construction) Scheme() relation.Scheme { return c.scheme }

// Database returns the single-relation database {OperandName: R}.
func (c *Construction) Database() relation.Database {
	return relation.Single(c.operand, c.R)
}

// FAttr returns the clause attribute F_j (1 ≤ j ≤ m).
func (c *Construction) FAttr(j int) relation.Attribute {
	return relation.Attribute(fmt.Sprintf("F%d%s", j, c.suffix))
}

// XAttr returns the variable attribute X_i (1 ≤ i ≤ n).
func (c *Construction) XAttr(i int) relation.Attribute {
	return relation.Attribute(fmt.Sprintf("X%d%s", i, c.suffix))
}

// YAttr returns the pair attribute Y{i,l}; the order of i and l is
// immaterial (the pair is normalized to i < l).
func (c *Construction) YAttr(i, l int) relation.Attribute {
	if i > l {
		i, l = l, i
	}
	return relation.Attribute(fmt.Sprintf("Y{%d,%d}%s", i, l, c.suffix))
}

// SAttr returns the S attribute.
func (c *Construction) SAttr() relation.Attribute {
	return relation.Attribute("S" + c.suffix)
}

// UAttr returns the U attribute of the WithFalsifiersAndU variant.
func (c *Construction) UAttr() relation.Attribute {
	return relation.Attribute("U" + c.suffix)
}

// FScheme returns the paper's F = F₁ … F_m.
func (c *Construction) FScheme() relation.Scheme {
	attrs := make([]relation.Attribute, c.M())
	for j := 1; j <= c.M(); j++ {
		attrs[j-1] = c.FAttr(j)
	}
	return relation.MustScheme(attrs...)
}

// XScheme returns X₁ … X_n.
func (c *Construction) XScheme() relation.Scheme {
	attrs := make([]relation.Attribute, c.N())
	for i := 1; i <= c.N(); i++ {
		attrs[i-1] = c.XAttr(i)
	}
	return relation.MustScheme(attrs...)
}

// XSubScheme returns the scheme {X_i : i ∈ vars}, in the given order.
func (c *Construction) XSubScheme(vars []int) (relation.Scheme, error) {
	attrs := make([]relation.Attribute, len(vars))
	for k, v := range vars {
		if v < 1 || v > c.N() {
			return relation.Scheme{}, fmt.Errorf("reduction: variable x%d out of range 1..%d", v, c.N())
		}
		attrs[k] = c.XAttr(v)
	}
	return relation.NewScheme(attrs...)
}

// YScheme returns the paper's Y = Y{1,2} … Y{1,m} … Y{m−1,m}, ordered
// lexicographically by pair, matching the example table.
func (c *Construction) YScheme() relation.Scheme {
	m := c.M()
	attrs := make([]relation.Attribute, 0, m*(m-1)/2)
	for i := 1; i < m; i++ {
		for l := i + 1; l <= m; l++ {
			attrs = append(attrs, c.YAttr(i, l))
		}
	}
	return relation.MustScheme(attrs...)
}

// TJScheme returns the paper's T_j = F_j X_{j1} X_{j2} X_{j3}
// Y{j,1} … Y{j,m} S (Y pairs normalized, listed with the partner index
// increasing).
func (c *Construction) TJScheme(j int) (relation.Scheme, error) {
	if j < 1 || j > c.M() {
		return relation.Scheme{}, fmt.Errorf("reduction: clause index %d out of range 1..%d", j, c.M())
	}
	clause := c.G.Clauses[j-1]
	attrs := []relation.Attribute{c.FAttr(j)}
	for _, l := range clause {
		attrs = append(attrs, c.XAttr(l.Var()))
	}
	for l := 1; l <= c.M(); l++ {
		if l != j {
			attrs = append(attrs, c.YAttr(j, l))
		}
	}
	attrs = append(attrs, c.SAttr())
	return relation.NewScheme(attrs...)
}

// buildScheme assembles T = F X Y S (plus U for the Theorem 4 variant).
func (c *Construction) buildScheme() (relation.Scheme, error) {
	attrs := c.FScheme().Attrs()
	attrs = append(attrs, c.XScheme().Attrs()...)
	attrs = append(attrs, c.YScheme().Attrs()...)
	attrs = append(attrs, c.SAttr())
	if c.Variant == WithFalsifiersAndU {
		attrs = append(attrs, c.UAttr())
	}
	return relation.NewScheme(attrs...)
}

// buildRelation constructs the tuples of R_G (plus variant extras), in the
// paper's row order: clause 1's satisfiers, clause 2's, …, then ν, then
// (for variants) ξ₁ … ξ_m.
func (c *Construction) buildRelation() (*relation.Relation, error) {
	r := relation.New(c.scheme)
	m := c.M()
	for j := 1; j <= m; j++ {
		sats, err := cnf.SatisfyingLocal(c.G.Clauses[j-1])
		if err != nil {
			return nil, err
		}
		for _, la := range sats {
			if _, err := r.Add(c.clauseRow(j, la, valC)); err != nil {
				return nil, err
			}
		}
	}
	if _, err := r.Add(c.nuRow()); err != nil {
		return nil, err
	}
	if c.Variant == WithFalsifiers || c.Variant == WithFalsifiersAndU {
		for j := 1; j <= m; j++ {
			la, err := cnf.FalsifyingLocal(c.G.Clauses[j-1])
			if err != nil {
				return nil, err
			}
			u := relation.Value(fmt.Sprintf("c%d", j))
			if _, err := r.Add(c.clauseRow(j, la, u)); err != nil {
				return nil, err
			}
		}
	}
	want := 7*m + 1
	if c.Variant != Plain {
		want += m
	}
	if r.Len() != want {
		return nil, fmt.Errorf("reduction: internal error: built %d rows, want %d", r.Len(), want)
	}
	return r, nil
}

// clauseRow builds the row for clause j carrying the local assignment la
// (a μ_jk when la satisfies the clause, the ξ_j when it falsifies it).
// uValue fills the U column when present.
func (c *Construction) clauseRow(j int, la cnf.LocalAssignment, uValue relation.Value) relation.Tuple {
	t := make(relation.Tuple, c.scheme.Len())
	for i := range t {
		t[i] = valE
	}
	c.set(t, c.FAttr(j), val1)
	for k, v := range la.Vars {
		if la.Values[k] {
			c.set(t, c.XAttr(v), val1)
		} else {
			c.set(t, c.XAttr(v), val0)
		}
	}
	for l := 1; l <= c.M(); l++ {
		if l != j {
			c.set(t, c.YAttr(j, l), valX)
		}
	}
	c.set(t, c.SAttr(), valA)
	if c.Variant == WithFalsifiersAndU {
		c.set(t, c.UAttr(), uValue)
	}
	return t
}

// nuRow builds ν: every F_j = 1, S = b, e elsewhere (U = c when present).
func (c *Construction) nuRow() relation.Tuple {
	t := make(relation.Tuple, c.scheme.Len())
	for i := range t {
		t[i] = valE
	}
	for j := 1; j <= c.M(); j++ {
		c.set(t, c.FAttr(j), val1)
	}
	c.set(t, c.SAttr(), valB)
	if c.Variant == WithFalsifiersAndU {
		c.set(t, c.UAttr(), valC)
	}
	return t
}

func (c *Construction) set(t relation.Tuple, a relation.Attribute, v relation.Value) {
	i, ok := c.scheme.Pos(a)
	if !ok {
		panic(fmt.Sprintf("reduction: attribute %q not in scheme %v", a, c.scheme))
	}
	t[i] = v
}

// assignmentTemplate builds the part of a Lemma 1 tuple that no
// assignment changes — every F_j = 1, every Y = x, S = a, and (for
// variants) U = c — and returns it with the positions of X_1 … X_n, the
// only cells a satisfying assignment writes.
func (c *Construction) assignmentTemplate() (t relation.Tuple, xs []int) {
	t = make(relation.Tuple, c.scheme.Len())
	for i := range t {
		t[i] = valE
	}
	for j := 1; j <= c.M(); j++ {
		c.set(t, c.FAttr(j), val1)
	}
	for i := 1; i < c.M(); i++ {
		for l := i + 1; l <= c.M(); l++ {
			c.set(t, c.YAttr(i, l), valX)
		}
	}
	c.set(t, c.SAttr(), valA)
	if c.Variant == WithFalsifiersAndU {
		c.set(t, c.UAttr(), valC)
	}
	xs = make([]int, c.N())
	for i := range xs {
		xs[i], _ = c.scheme.Pos(c.XAttr(i + 1))
	}
	return t, xs
}

// PhiG returns the paper's expression φ_G = π_F(T) ∗ ∏*_j π_{T_j}(T),
// referencing the construction's operand name. For variant relations the
// projections still omit U — this is exactly the paper's φ₁ of Theorem 4
// (which "considers G as a tautology" on R'_G).
func (c *Construction) PhiG() (algebra.Expr, error) {
	op, err := algebra.NewOperand(c.operand, c.scheme)
	if err != nil {
		return nil, err
	}
	return c.phiOver(op)
}

// PhiGWithU returns Theorem 4's φ₂: like φ_G but every clause projection
// also keeps the U column, so falsifier rows cannot combine across
// clauses. Only valid for the WithFalsifiersAndU variant.
func (c *Construction) PhiGWithU() (algebra.Expr, error) {
	if c.Variant != WithFalsifiersAndU {
		return nil, fmt.Errorf("reduction: PhiGWithU requires the %v variant, have %v", WithFalsifiersAndU, c.Variant)
	}
	op, err := algebra.NewOperand(c.operand, c.scheme)
	if err != nil {
		return nil, err
	}
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
		withU, err := relation.NewScheme(append(tj.Attrs(), c.UAttr())...)
		if err != nil {
			return nil, err
		}
		pj, err := algebra.NewProject(withU, op)
		if err != nil {
			return nil, err
		}
		args = append(args, pj)
	}
	return algebra.NewJoin(args...)
}

// RTilde computes Lemma 1's R̃_G by enumerating the satisfying assignments
// of G with the SAT substrate: one row per model, over the construction's
// scheme. The row is laid out once; a model writes only its X cells.
func (c *Construction) RTilde() (*relation.Relation, error) {
	out := relation.New(c.scheme)
	row, xs := c.assignmentTemplate()
	err := sat.Enumerate(c.G, func(a cnf.Assignment) bool {
		for i, p := range xs {
			row[p] = val0
			if a.Value(i + 1) {
				row[p] = val1
			}
		}
		out.MustAdd(row) // the relation stores a copy; row is rewritten for the next model
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ExpectedPhiResult returns Lemma 1's right-hand side R_G ∪ R̃_G. For the
// Plain variant this is exactly φ_G(R_G); verifying that equality is
// experiment E1.
func (c *Construction) ExpectedPhiResult() (*relation.Relation, error) {
	rt, err := c.RTilde()
	if err != nil {
		return nil, err
	}
	return c.R.Union(rt)
}

// UG returns Proposition 1's tuple u_G over the Y scheme: every Y{i,l} = x.
// G is satisfiable iff u_G ∈ π_Y(φ_G(R_G)).
func (c *Construction) UG() relation.NamedTuple {
	y := c.YScheme()
	vals := make(relation.Tuple, y.Len())
	for i := range vals {
		vals[i] = valX
	}
	return relation.NamedTuple{Scheme: y, Vals: vals}
}
