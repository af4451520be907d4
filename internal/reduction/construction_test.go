package reduction

import (
	"strings"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/relation"
	"relquery/internal/sat"
	"relquery/internal/tableau"
)

// paperTable is the example relation R_G printed in full on p. 106 of the
// paper, for G = (x1+x2+x3)(~x2+x3+~x4)(~x3+~x4+~x5).
var paperTable = []string{
	//F1 F2 F3 X1 X2 X3 X4 X5 Y12 Y13 Y23 S
	"1 e e 0 0 1 e e x x e a",
	"1 e e 0 1 0 e e x x e a",
	"1 e e 0 1 1 e e x x e a",
	"1 e e 1 0 0 e e x x e a",
	"1 e e 1 0 1 e e x x e a",
	"1 e e 1 1 0 e e x x e a",
	"1 e e 1 1 1 e e x x e a",
	"e 1 e e 0 0 0 e x e x a",
	"e 1 e e 0 0 1 e x e x a",
	"e 1 e e 0 1 0 e x e x a",
	"e 1 e e 0 1 1 e x e x a",
	"e 1 e e 1 0 0 e x e x a",
	"e 1 e e 1 1 0 e x e x a",
	"e 1 e e 1 1 1 e x e x a",
	"e e 1 e e 0 0 0 e x x a",
	"e e 1 e e 0 0 1 e x x a",
	"e e 1 e e 0 1 0 e x x a",
	"e e 1 e e 0 1 1 e x x a",
	"e e 1 e e 1 0 0 e x x a",
	"e e 1 e e 1 0 1 e x x a",
	"e e 1 e e 1 1 0 e x x a",
	"1 1 1 e e e e e e e e b",
}

func paperConstruction(t *testing.T) *Construction {
	t.Helper()
	c, err := New(cnf.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPaperExampleTable(t *testing.T) {
	c := paperConstruction(t)
	wantScheme := "F1 F2 F3 X1 X2 X3 X4 X5 Y{1,2} Y{1,3} Y{2,3} S"
	if got := c.Scheme().String(); got != wantScheme {
		t.Fatalf("scheme = %q, want %q", got, wantScheme)
	}
	if c.R.Len() != len(paperTable) {
		t.Fatalf("|R_G| = %d, want %d", c.R.Len(), len(paperTable))
	}
	// Row-for-row identity, in the paper's printed order.
	for i, row := range paperTable {
		want := relation.TupleOf(strings.Fields(row)...)
		got := c.R.Tuple(i)
		if !got.Equal(want) {
			t.Errorf("row %d = %v, want %v", i+1, got, want)
		}
	}
}

func TestPaperExampleExpression(t *testing.T) {
	c := paperConstruction(t)
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	want := "pi[F1 F2 F3](T)" +
		" * pi[F1 X1 X2 X3 Y{1,2} Y{1,3} S](T)" +
		" * pi[F2 X2 X3 X4 Y{1,2} Y{2,3} S](T)" +
		" * pi[F3 X3 X4 X5 Y{1,3} Y{2,3} S](T)"
	if got := phi.String(); got != want {
		t.Errorf("φ_G =\n%q, want\n%q", got, want)
	}
}

func TestConstructionShapes(t *testing.T) {
	c := paperConstruction(t)
	if c.M() != 3 || c.N() != 5 {
		t.Fatalf("m=%d n=%d", c.M(), c.N())
	}
	if got := c.FScheme().String(); got != "F1 F2 F3" {
		t.Errorf("F = %q", got)
	}
	if got := c.XScheme().String(); got != "X1 X2 X3 X4 X5" {
		t.Errorf("X = %q", got)
	}
	if got := c.YScheme().String(); got != "Y{1,2} Y{1,3} Y{2,3}" {
		t.Errorf("Y = %q", got)
	}
	if c.YAttr(3, 1) != c.YAttr(1, 3) {
		t.Error("YAttr not normalized")
	}
	tj, err := c.TJScheme(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := tj.String(); got != "F2 X2 X3 X4 Y{1,2} Y{2,3} S" {
		t.Errorf("T_2 = %q", got)
	}
	if _, err := c.TJScheme(0); err == nil {
		t.Error("TJScheme(0) accepted")
	}
	if _, err := c.TJScheme(4); err == nil {
		t.Error("TJScheme(4) accepted")
	}
	if c.OperandName() != "T" {
		t.Errorf("operand = %q", c.OperandName())
	}
}

func TestBuildRejectsBadFormulas(t *testing.T) {
	if _, err := New(cnf.MustNew(3, cnf.C(1, 2, 3))); err == nil {
		t.Error("formula with 1 clause accepted")
	}
	bad := cnf.MustNew(3, cnf.C(1, 2, 3), cnf.C(1, 2, 3), cnf.C(1, 1, 2))
	if _, err := New(bad); err == nil {
		t.Error("repeated-variable clause accepted")
	}
	if _, err := NewSuffixed(cnf.PaperExample(), "a b"); err == nil {
		t.Error("whitespace suffix accepted")
	}
	if _, err := NewSuffixed(cnf.PaperExample(), "["); err == nil {
		t.Error("bracket suffix accepted")
	}
}

func TestSuffixedConstruction(t *testing.T) {
	c, err := NewSuffixed(cnf.PaperExample(), "'")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.FAttr(1); got != "F1'" {
		t.Errorf("FAttr = %q", got)
	}
	if got := c.YAttr(1, 2); got != "Y{1,2}'" {
		t.Errorf("YAttr = %q", got)
	}
	if c.OperandName() != "T'" {
		t.Errorf("operand = %q", c.OperandName())
	}
	// Suffixed and plain schemes are disjoint — required by Theorem 1.
	p := paperConstruction(t)
	if !c.Scheme().Disjoint(p.Scheme()) {
		t.Error("primed scheme not disjoint from plain scheme")
	}
}

func TestVariantShapes(t *testing.T) {
	g := cnf.PaperExample()
	cd, err := NewVariant(g, WithFalsifiers)
	if err != nil {
		t.Fatal(err)
	}
	if cd.R.Len() != 7*3+1+3 {
		t.Errorf("|R''_G| = %d, want 25", cd.R.Len())
	}
	// Same scheme as plain (no U).
	cp := paperConstruction(t)
	if !cd.Scheme().SameOrder(cp.Scheme()) {
		t.Error("R''_G scheme differs from R_G scheme")
	}
	cu, err := NewVariant(g, WithFalsifiersAndU)
	if err != nil {
		t.Fatal(err)
	}
	if cu.R.Len() != 25 {
		t.Errorf("|R'_G| = %d, want 25", cu.R.Len())
	}
	if !cu.Scheme().Has(cu.UAttr()) {
		t.Error("R'_G missing U column")
	}
	// Falsifier rows carry distinct U values c1..cm; all others carry c.
	uPos, _ := cu.Scheme().Pos(cu.UAttr())
	counts := make(map[relation.Value]int)
	cu.R.Each(func(tp relation.Tuple) bool {
		counts[tp[uPos]]++
		return true
	})
	if counts["c"] != 22 || counts["c1"] != 1 || counts["c2"] != 1 || counts["c3"] != 1 {
		t.Errorf("U column distribution = %v", counts)
	}
	if got := Plain.String(); got != "R_G" {
		t.Errorf("Plain.String = %q", got)
	}
	if got := WithFalsifiers.String(); got != "R''_G" {
		t.Errorf("WithFalsifiers.String = %q", got)
	}
	if got := WithFalsifiersAndU.String(); got != "R'_G" {
		t.Errorf("WithFalsifiersAndU.String = %q", got)
	}
}

func TestPhiGWithURequiresVariant(t *testing.T) {
	c := paperConstruction(t)
	if _, err := c.PhiGWithU(); err == nil {
		t.Error("PhiGWithU on plain variant accepted")
	}
}

func TestLemma1OnPaperExample(t *testing.T) {
	c := paperConstruction(t)
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	got, err := algebra.Eval(phi, c.Database())
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.ExpectedPhiResult()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("Lemma 1 fails on the paper example:\n got %d tuples\nwant %d tuples", got.Len(), want.Len())
	}
	// |φ_G(R_G)| = 7m + 1 + a(G): the example has a(G) models.
	aG, err := sat.CountModels(c.G)
	if err != nil {
		t.Fatal(err)
	}
	if int64(got.Len()) != int64(7*c.M()+1)+aG {
		t.Errorf("|φ_G(R_G)| = %d, want %d + %d", got.Len(), 7*c.M()+1, aG)
	}
}

func TestUG(t *testing.T) {
	c := paperConstruction(t)
	ug := c.UG()
	if got := ug.Scheme.String(); got != "Y{1,2} Y{1,3} Y{2,3}" {
		t.Errorf("u_G scheme = %q", got)
	}
	for _, v := range ug.Vals {
		if v != "x" {
			t.Errorf("u_G value = %q, want x", v)
		}
	}
}

func TestRTildeMatchesModels(t *testing.T) {
	c := paperConstruction(t)
	rt, err := c.RTilde()
	if err != nil {
		t.Fatal(err)
	}
	aG, err := sat.CountModels(c.G)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rt.Len()) != aG {
		t.Errorf("|R̃_G| = %d, want %d", rt.Len(), aG)
	}
	// R̃_G rows: every F = 1, every Y = x, S = a, X spelling a model.
	fPos, _ := c.Scheme().Pos(c.FAttr(1))
	sPos, _ := c.Scheme().Pos(c.SAttr())
	rt.Each(func(tp relation.Tuple) bool {
		if tp[fPos] != "1" || tp[sPos] != "a" {
			t.Errorf("malformed R̃ row %v", tp)
		}
		return true
	})
	// R̃_G is disjoint from R_G (its rows have all F = 1 and S = a).
	inter, err := rt.Intersect(c.R)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Len() != 0 {
		t.Errorf("R̃_G ∩ R_G has %d tuples", inter.Len())
	}
}

// TestRTildeRowsSpellTheirModels: R̃_G's i-th row is the i-th model of G
// written out attribute by attribute — every F = 1, every Y = x, S = a,
// U = c where the variant has it, X_i the model's value and e nowhere —
// for the plain, falsifier and U variants and a suffixed copy.
func TestRTildeRowsSpellTheirModels(t *testing.T) {
	g := cnf.PaperExample()
	builds := map[string]func() (*Construction, error){
		"R_G":    func() (*Construction, error) { return New(g) },
		"R''_G":  func() (*Construction, error) { return NewVariant(g, WithFalsifiers) },
		"R'_G":   func() (*Construction, error) { return NewVariant(g, WithFalsifiersAndU) },
		"primed": func() (*Construction, error) { return NewSuffixed(g, "'") },
	}
	for name, build := range builds {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := c.RTilde()
		if err != nil {
			t.Fatal(err)
		}
		var models []cnf.Assignment
		if err := sat.Enumerate(c.G, func(a cnf.Assignment) bool {
			models = append(models, a.Clone())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if rt.Len() != len(models) {
			t.Fatalf("%s: |R̃_G| = %d, want %d", name, rt.Len(), len(models))
		}
		for k, a := range models {
			want := map[relation.Attribute]relation.Value{c.SAttr(): "a"}
			if c.Variant == WithFalsifiersAndU {
				want[c.UAttr()] = "c"
			}
			for j := 1; j <= c.M(); j++ {
				want[c.FAttr(j)] = "1"
				for l := j + 1; l <= c.M(); l++ {
					want[c.YAttr(j, l)] = "x"
				}
			}
			for i := 1; i <= c.N(); i++ {
				want[c.XAttr(i)] = "0"
				if a.Value(i) {
					want[c.XAttr(i)] = "1"
				}
			}
			row := rt.Tuple(k)
			for p, attr := range c.Scheme().Attrs() {
				v, ok := want[attr]
				if !ok {
					v = "e"
				}
				if row[p] != v {
					t.Fatalf("%s: row %d has %s = %q, want %q (%v)", name, k, attr, row[p], v, row)
				}
			}
		}
	}
}

func TestXSubScheme(t *testing.T) {
	c := paperConstruction(t)
	x, err := c.XSubScheme([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := x.String(); got != "X2 X4" {
		t.Errorf("XSubScheme = %q", got)
	}
	if _, err := c.XSubScheme([]int{0}); err == nil {
		t.Error("variable 0 accepted")
	}
	if _, err := c.XSubScheme([]int{6}); err == nil {
		t.Error("out-of-range variable accepted")
	}
}

func TestPhiGTableauIsMinimal(t *testing.T) {
	// The gadget expression carries no redundant operand occurrences: the
	// minimal tableau of φ_G keeps all m + 1 rows (π_F plus one per
	// clause). A collapse here would mean the reduction could be shrunk —
	// and the paper's counting arguments would break.
	c := paperConstruction(t)
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := tableau.New(phi)
	if err != nil {
		t.Fatal(err)
	}
	min, err := tb.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Rows) != c.M()+1 {
		t.Errorf("minimal tableau has %d rows, want %d", len(min.Rows), c.M()+1)
	}
}
