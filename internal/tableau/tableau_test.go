package tableau

import (
	"math/rand"
	"slices"
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
		got, err := tb.Eval(db)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if !got.Equal(want) {
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
		got, err := tb.Eval(db)
		if err != nil {
			return false
		}
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMemberMatchesEval(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "2 x q", "2 y q")
	db := relation.Single("T", r)
	e, err := algebra.ParseForDatabase("pi[A C](pi[A B](T) * pi[B C](T))", db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	result, err := algebra.Eval(e, db)
	if err != nil {
		t.Fatal(err)
	}
	// Every tuple over the active domain is in the result iff Member says so.
	for _, a := range []string{"1", "2"} {
		for _, c := range []string{"p", "q"} {
			nt := relation.NamedTuple{Scheme: relation.MustScheme("A", "C"), Vals: relation.TupleOf(a, c)}
			got, err := tb.Member(nt, db, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != result.Contains(nt.Vals) {
				t.Errorf("Member(%s %s) = %v, eval says %v", a, c, got, result.Contains(nt.Vals))
			}
		}
	}
	// The self-join over T's projections onto A B and B C, fixed to each
	// tuple of the active domain: (2 y p) is in both projections value by
	// value, but its fixed prefix conflicts, since (y p) ∉ π_BC(T).
	join, err := New(parse(t, "pi[A B](T) * pi[B C](T)", abcScheme))
	if err != nil {
		t.Fatal(err)
	}
	full, err := algebra.Eval(parse(t, "pi[A B](T) * pi[B C](T)", abcScheme), db)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"1", "2"} {
		for _, b := range []string{"x", "y"} {
			for _, c := range []string{"p", "q"} {
				nt := relation.NamedTuple{Scheme: abcScheme["T"], Vals: relation.TupleOf(a, b, c)}
				got, err := join.Member(nt, db, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != full.ContainsNamed(nt) {
					t.Errorf("self-join Member(%s %s %s) = %v, eval says %v", a, b, c, got, full.ContainsNamed(nt))
				}
			}
		}
	}
	// Wrong scheme errors.
	bad := relation.NamedTuple{Scheme: relation.MustScheme("A", "Z"), Vals: relation.TupleOf("1", "1")}
	if _, err := tb.Member(bad, db, nil); err == nil {
		t.Error("mismatched scheme accepted")
	}
}

func TestMemberReorderedScheme(t *testing.T) {
	r := mkrel(t, "A B", "1 x")
	db := relation.Single("T", r)
	e, err := algebra.ParseForDatabase("T", db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	nt := relation.NamedTuple{Scheme: relation.MustScheme("B", "A"), Vals: relation.TupleOf("x", "1")}
	ok, err := tb.Member(nt, db, nil)
	if err != nil || !ok {
		t.Errorf("Member reordered = %v, %v", ok, err)
	}
}

func TestStreamProjectionPushdown(t *testing.T) {
	r := mkrel(t, "A B", "1 x", "2 x")
	db := relation.Single("T", r)
	// pi[B](T): the A column is an existential don't-care, so the search
	// iterates distinct B-projections — exactly one yield, not one per
	// source tuple.
	e, err := algebra.ParseForDatabase("pi[B](T)", db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := tb.Stream(db, nil, func(relation.Tuple) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("stream yielded %d, want 1 (projection pushdown)", count)
	}
}

func TestStreamDuplicatesAcrossRowsAndEarlyStop(t *testing.T) {
	r := mkrel(t, "A B C", "1 x p", "1 y q")
	db := relation.Single("T", r)
	// pi[A](pi[A B](T) * pi[B C](T)): A=1 arises from two (A,B) patterns,
	// two valuations with one summary image. The search binds A first and
	// stops at its first witness, so the stream yields (1) once.
	e, err := algebra.ParseForDatabase("pi[A](pi[A B](T) * pi[B C](T))", db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := tb.Stream(db, nil, func(tp relation.Tuple) bool {
		if tp[0] != "1" {
			t.Errorf("unexpected tuple %v", tp)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("stream yielded %d, want 1 (one tuple, however many valuations)", count)
	}
	// Early stop.
	count = 0
	if err := tb.Stream(db, nil, func(relation.Tuple) bool {
		count++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("stream after stop yielded %d", count)
	}
}

func TestTableauOperandValidation(t *testing.T) {
	e := parse(t, "T", abcScheme)
	tb, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	// Missing relation.
	if _, err := tb.Eval(relation.NewDatabase()); err == nil {
		t.Error("missing operand accepted")
	}
	// Wrong scheme in db.
	db := relation.Single("T", mkrel(t, "A B"))
	if _, err := tb.Eval(db); err == nil {
		t.Error("wrong operand scheme accepted")
	}
	// A variable unified across two attributes of one row, outside the
	// one-attribute scoping of variables.
	tb.Unify(tb.Rows[0].Vars[1], tb.Rows[0].Vars[0])
	if _, err := tb.Eval(relation.Single("T", mkrel(t, "A B C", "1 1 p"))); err == nil {
		t.Error("a row repeating a variable accepted")
	}
}

// TestStreamYieldsTuplesTheCalleeMustClone pins Stream's contract: each
// tuple of φ(db) is yielded once, in one tuple the stream reuses — so the
// stream allocates nothing per tuple, and a caller that keeps a tuple
// clones it.
func TestStreamYieldsTuplesTheCalleeMustClone(t *testing.T) {
	db := relation.Single("T", mkrel(t, "A B C", "1 x p", "2 x q", "2 y q", "3 y r"))
	e, err := algebra.ParseForDatabase("pi[A C](pi[A B](T) * pi[B C](T))", db)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	var kept, copies []relation.Tuple
	if err := tb.Stream(db, nil, func(tp relation.Tuple) bool {
		kept = append(kept, tp)
		copies = append(copies, tp.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) < 2 {
		t.Fatalf("stream yielded %d tuples, want several", len(kept))
	}
	for i := range kept {
		if &kept[i][0] != &kept[0][0] {
			t.Errorf("tuple %d is a fresh slice, not the stream's own", i)
		}
	}
	want, err := tb.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(copies, relation.Tuple.Compare)
	if got := want.Sorted(); !slices.EqualFunc(got, copies, relation.Tuple.Equal) {
		t.Errorf("the clones are %v, φ(db) is %v", copies, got)
	}
}
