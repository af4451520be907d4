package tableau

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

func mkrel(t *testing.T, scheme string, rows ...string) *relation.Relation {
	t.Helper()
	s, err := relation.SchemeOf(scheme)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(s)
	for _, row := range rows {
		if _, err := r.Add(relation.TupleOf(strings.Fields(row)...)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func parse(t *testing.T, src string, schemes map[string]relation.Scheme) algebra.Expr {
	t.Helper()
	e, err := algebra.Parse(src, schemes)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var abcScheme = map[string]relation.Scheme{
	"T": relation.MustScheme("A", "B", "C"),
	"U": relation.MustScheme("C", "D"),
}

func TestNewOperandTableau(t *testing.T) {
	tb, err := New(parse(t, "T", abcScheme))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 || tb.Rows[0].Operand != "T" {
		t.Fatalf("rows = %+v", tb.Rows)
	}
	if len(tb.Summary) != 3 {
		t.Fatalf("summary = %v", tb.Summary)
	}
	// Summary vars equal the single row's vars.
	for i, v := range tb.Summary {
		if tb.Rows[0].Vars[i] != v {
			t.Errorf("summary[%d] = v%d, row var v%d", i, v, tb.Rows[0].Vars[i])
		}
	}
}

func TestJoinUnifiesSharedAttributes(t *testing.T) {
	tb, err := New(parse(t, "pi[A B](T) * pi[B C](T)", abcScheme))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The two rows share the B variable and nothing else.
	bPos, _ := tb.Rows[0].Scheme.Pos("B")
	bPos2, _ := tb.Rows[1].Scheme.Pos("B")
	if tb.Rows[0].Vars[bPos] != tb.Rows[1].Vars[bPos2] {
		t.Error("B variables not unified")
	}
	aPos, _ := tb.Rows[0].Scheme.Pos("A")
	aPos2, _ := tb.Rows[1].Scheme.Pos("A")
	if tb.Rows[0].Vars[aPos] == tb.Rows[1].Vars[aPos2] {
		t.Error("A variables wrongly unified")
	}
	if got := len(tb.Vars()); got != 5 { // A,B,C from row0; A',C' extra... rows have 3 vars each, B shared => 5
		t.Errorf("vars = %d, want 5", got)
	}
	if !strings.Contains(tb.String(), "summary") {
		t.Errorf("String = %q", tb.String())
	}
}

func TestTableauEvalMatchesAlgebraEval(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q", "2 y q")
	u := mkrel(t, "C D", "p 7", "q 8")
	v, w := mkrel(t, "E F", "e f"), mkrel(t, "E F")
	db := relation.Database{"T": r, "U": u, "V": v, "W": w}
	exprs := []string{
		"T",
		"pi[A B](T)",
		"pi[A B](T) * pi[B C](T)",
		"pi[A](pi[A B](T) * pi[B C](T))",
		"T * U",
		"pi[A D](T * U)",
		"pi[A C](T) * U * pi[B C](T)",
		// V's and W's rows have no relevant variable: W, being empty,
		// empties the result, and V does not.
		"pi[A](T * V)",
		"pi[A](T * W)",
		"pi[](T)",
		"pi[](T * W)",
	}
	for _, src := range exprs {
		e, err := algebra.ParseForDatabase(src, db)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		want, err := algebra.Eval(e, db)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		tb, err := New(e)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := valuate(t, tb, db); !got.Equal(want) {
			t.Errorf("%q: tableau eval %v ≠ algebra eval %v", src, got.Sorted(), want.Sorted())
		}
	}
}

func randomRelation(rng *rand.Rand, scheme relation.Scheme, maxRows int) *relation.Relation {
	r := relation.New(scheme)
	alphabet := []string{"0", "1", "e"}
	for i, n := 0, rng.Intn(maxRows+1); i < n; i++ {
		tp := make(relation.Tuple, scheme.Len())
		for j := range tp {
			tp[j] = relation.Value(alphabet[rng.Intn(len(alphabet))])
		}
		r.MustAdd(tp)
	}
	return r
}

func TestQuickTableauEvalMatchesAlgebra(t *testing.T) {
	exprs := []string{
		"pi[A B](T) * pi[B C](T)",
		"pi[A](pi[A B](T) * pi[B C](T))",
		"pi[A C](T) * pi[A B](T)",
		"T * T",
	}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randomRelation(rng, relation.MustScheme("A", "B", "C"), 10)
		db := relation.Database{"T": r}
		e, err := algebra.ParseForDatabase(exprs[int(pick)%len(exprs)], db)
		if err != nil {
			return false
		}
		want, err := algebra.Eval(e, db)
		if err != nil {
			return false
		}
		tb, err := New(e)
		if err != nil {
			return false
		}
		return valuate(t, tb, db).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// valuate is φ(db) by the tableau's definition: the summary's image under
// every valuation that maps each row onto a tuple of its operand's
// relation, found by trying every tuple for every row.
func valuate(t *testing.T, tb *Tableau, db relation.Database) *relation.Relation {
	t.Helper()
	out := relation.New(tb.Target)
	rho := map[Var]relation.Value{}
	var walk func(i int)
	walk = func(i int) {
		if i == len(tb.Rows) {
			tp := make(relation.Tuple, len(tb.Summary))
			for k, v := range tb.Summary {
				tp[k] = rho[v]
			}
			out.MustAdd(tp)
			return
		}
		row := tb.Rows[i]
		r, err := db.Get(row.Operand)
		if err != nil {
			t.Fatal(err)
		}
		r.Each(func(tp relation.Tuple) bool {
			var bound []Var
			ok := true
			for k, v := range row.Vars {
				pos, _ := r.Scheme().Pos(row.Scheme.Attr(k))
				if w, set := rho[v]; !set {
					rho[v], bound = tp[pos], append(bound, v)
				} else if ok = w == tp[pos]; !ok {
					break
				}
			}
			if ok {
				walk(i + 1)
			}
			for _, v := range bound {
				delete(rho, v)
			}
			return true
		})
	}
	walk(0)
	return out
}
