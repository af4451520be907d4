package decide

import (
	"errors"
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

func expr(t *testing.T, src string, db relation.Database) algebra.Expr {
	t.Helper()
	e, err := algebra.ParseForDatabase(src, db)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testDB(t *testing.T) relation.Database {
	t.Helper()
	return relation.Single("T", mkrel(t, "A B C",
		"1 x p",
		"2 x q",
		"2 y q",
	))
}

func TestMember(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A C](pi[A B](T) * pi[B C](T))", db)
	result, err := algebra.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"1", "2"} {
		for _, c := range []string{"p", "q"} {
			nt := relation.NamedTuple{Scheme: relation.MustScheme("A", "C"), Vals: relation.TupleOf(a, c)}
			got, err := Member(nt, phi, db)
			if err != nil {
				t.Fatal(err)
			}
			if got != result.Contains(nt.Vals) {
				t.Errorf("Member(%s,%s) = %v", a, c, got)
			}
		}
	}
}

func TestResultEquals(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A B](T) * pi[B C](T)", db)
	truth, err := algebra.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}

	// Exact conjecture.
	cmp, err := ResultEquals(phi, db, truth, Budget{})
	if err != nil || !cmp.Holds {
		t.Errorf("exact conjecture rejected: %+v %v", cmp, err)
	}
	// Conjecture missing a tuple: φ(R) ⊄ r, witness from the result side.
	smaller := truth.Clone()
	var removed relation.Tuple
	truth.Each(func(tp relation.Tuple) bool { removed = tp; return false })
	smallerTuples := relation.New(truth.Scheme())
	truth.Each(func(tp relation.Tuple) bool {
		if !tp.Equal(removed) {
			smallerTuples.MustAdd(tp)
		}
		return true
	})
	smaller = smallerTuples
	cmp, err = ResultEquals(phi, db, smaller, Budget{})
	if err != nil || cmp.Holds {
		t.Errorf("under-conjecture accepted: %+v %v", cmp, err)
	}
	if cmp.Witness == nil {
		t.Error("missing witness for under-conjecture")
	}
	// Conjecture with an extra alien tuple: r ⊄ φ(R).
	bigger := truth.Clone()
	bigger.MustAdd(relation.TupleOf("9", "9", "9"))
	cmp, err = ResultEquals(phi, db, bigger, Budget{})
	if err != nil || cmp.Holds {
		t.Errorf("over-conjecture accepted: %+v %v", cmp, err)
	}
	if cmp.Witness == nil || cmp.Witness[0] != "9" {
		t.Errorf("witness = %v, want the alien tuple", cmp.Witness)
	}
	// Scheme mismatch: immediately unequal.
	alien := mkrel(t, "A Z", "1 1")
	cmp, err = ResultEquals(phi, db, alien, Budget{})
	if err != nil || cmp.Holds {
		t.Errorf("scheme mismatch accepted: %+v %v", cmp, err)
	}
}

func TestResultEqualsColumnOrderInsensitive(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A B](T)", db)
	// Conjecture written with columns swapped.
	r := mkrel(t, "B A", "x 1", "x 2", "y 2")
	cmp, err := ResultEquals(phi, db, r, Budget{})
	if err != nil || !cmp.Holds {
		t.Errorf("reordered conjecture rejected: %+v %v", cmp, err)
	}
}

func TestCardinalityProcedures(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A B](T) * pi[B C](T)", db)
	truth, err := algebra.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}
	n := truth.Len()

	count, err := Count(phi, db, Budget{})
	if err != nil || count != n {
		t.Errorf("Count = %d, %v; want %d", count, err, n)
	}
	for d := 0; d <= n+2; d++ {
		atLeast, err := CardAtLeast(phi, db, d, Budget{})
		if err != nil || atLeast != (d <= n) {
			t.Errorf("CardAtLeast(%d) = %v, %v", d, atLeast, err)
		}
		atMost, err := CardAtMost(phi, db, d, Budget{})
		if err != nil || atMost != (n <= d) {
			t.Errorf("CardAtMost(%d) = %v, %v", d, atMost, err)
		}
	}
	between, err := CardBetween(phi, db, n, n, Budget{})
	if err != nil || !between {
		t.Errorf("CardBetween(n,n) = %v, %v", between, err)
	}
	between, err = CardBetween(phi, db, n+1, n+5, Budget{})
	if err != nil || between {
		t.Errorf("CardBetween(n+1,n+5) = %v, %v", between, err)
	}
	if _, err := CardBetween(phi, db, 3, 2, Budget{}); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := CardAtMost(phi, db, -1, Budget{}); err == nil {
		t.Error("negative bound accepted")
	}
	// Materialized count agrees.
	mat, err := algebra.Eval(phi, db)
	if err != nil || mat.Len() != n {
		t.Errorf("materialized count = %v, %v", mat, err)
	}
}

func TestBudgetExceeded(t *testing.T) {
	// A cross-product query with plenty of result tuples and a tiny budget.
	db := relation.NewDatabase()
	db.Put("L", mkrel(t, "A", "1", "2", "3", "4", "5"))
	db.Put("R", mkrel(t, "B", "1", "2", "3", "4", "5"))
	phi := expr(t, "L * R", db)
	_, err := Count(phi, db, Budget{MaxTuples: 5})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
	empty := relation.New(relation.MustScheme("A", "B"))
	_, err = ResultSubset(phi, db, empty, Budget{MaxTuples: 3})
	if err == nil {
		// A witness may be found before the budget trips — the first
		// streamed tuple is already outside the empty conjecture, so this
		// must NOT be a budget error; it must be a clean "false".
		cmp, err2 := ResultSubset(phi, db, empty, Budget{MaxTuples: 3})
		if err2 != nil || cmp.Holds {
			t.Errorf("ResultSubset = %+v, %v", cmp, err2)
		}
	}
}

func TestContainedFixedRelation(t *testing.T) {
	db := testDB(t)
	small := expr(t, "pi[A B C](T)", db)
	big := expr(t, "pi[A B](T) * pi[B C](T)", db)
	cmp, err := ContainedFixedRelation(small, big, db, Budget{})
	if err != nil || !cmp.Holds {
		t.Errorf("T ⊆ relaxation failed: %+v %v", cmp, err)
	}
	cmp, err = ContainedFixedRelation(big, small, db, Budget{})
	if err != nil || cmp.Holds {
		t.Errorf("relaxation ⊆ T unexpectedly holds: %+v %v", cmp, err)
	}
	if cmp.Witness == nil {
		t.Error("missing witness")
	}
	eq, err := EquivalentFixedRelation(small, big, db, Budget{})
	if err != nil || eq.Holds {
		t.Errorf("equivalence unexpectedly holds: %+v %v", eq, err)
	}
	// Same expression: trivially equivalent.
	eq, err = EquivalentFixedRelation(big, big, db, Budget{})
	if err != nil || !eq.Holds {
		t.Errorf("self-equivalence failed: %+v %v", eq, err)
	}
}

func TestContainedDifferentSchemes(t *testing.T) {
	db := testDB(t)
	a := expr(t, "pi[A](T)", db)
	b := expr(t, "pi[B](T)", db)
	cmp, err := ContainedFixedRelation(a, b, db, Budget{})
	if err != nil || cmp.Holds {
		t.Errorf("different-scheme containment holds: %+v %v", cmp, err)
	}
	// Empty left side is contained in anything.
	dbEmpty := relation.Single("T", relation.New(relation.MustScheme("A", "B", "C")))
	cmp, err = ContainedFixedRelation(expr(t, "pi[A](T)", dbEmpty), expr(t, "pi[B](T)", dbEmpty), dbEmpty, Budget{})
	if err != nil || !cmp.Holds {
		t.Errorf("empty ⊆ anything failed: %+v %v", cmp, err)
	}
}

func TestContainedFixedQuery(t *testing.T) {
	phiSchemes := relation.Single("T", mkrel(t, "A B", "1 x"))
	phi := expr(t, "pi[A](T)", phiSchemes)
	db1 := relation.Single("T", mkrel(t, "A B", "1 x"))
	db2 := relation.Single("T", mkrel(t, "A B", "1 x", "2 y"))
	cmp, err := ContainedFixedQuery(phi, db1, db2, Budget{})
	if err != nil || !cmp.Holds {
		t.Errorf("monotone containment failed: %+v %v", cmp, err)
	}
	cmp, err = ContainedFixedQuery(phi, db2, db1, Budget{})
	if err != nil || cmp.Holds {
		t.Errorf("reverse containment holds: %+v %v", cmp, err)
	}
	eq, err := EquivalentFixedQuery(phi, db1, db1, Budget{})
	if err != nil || !eq.Holds {
		t.Errorf("self-equivalence failed: %+v %v", eq, err)
	}
}

func TestQuickProceduresMatchMaterialization(t *testing.T) {
	exprs := []string{
		"pi[A B](T) * pi[B C](T)",
		"pi[A](pi[A B](T) * pi[B C](T))",
		"pi[A C](T) * pi[B C](T)",
	}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		scheme := relation.MustScheme("A", "B", "C")
		r := relation.New(scheme)
		alphabet := []string{"0", "1", "e"}
		for i, n := 0, rng.Intn(10); i < n; i++ {
			tp := make(relation.Tuple, 3)
			for j := range tp {
				tp[j] = relation.Value(alphabet[rng.Intn(3)])
			}
			r.MustAdd(tp)
		}
		db := relation.Single("T", r)
		e, err := algebra.Parse(exprs[int(pick)%len(exprs)], map[string]relation.Scheme{"T": scheme})
		if err != nil {
			return false
		}
		truth, err := algebra.Eval(e, db)
		if err != nil {
			return false
		}
		// Count agrees.
		n, err := Count(e, db, Budget{})
		if err != nil || n != truth.Len() {
			return false
		}
		// ResultEquals(truth) holds; with a mutated conjecture it fails.
		cmp, err := ResultEquals(e, db, truth, Budget{})
		if err != nil || !cmp.Holds {
			return false
		}
		mutated := truth.Clone()
		mutated.MustAdd(relation.TupleOf(make([]string, truth.Scheme().Len())...))
		cmp, err = ResultEquals(e, db, mutated, Budget{})
		if err != nil || cmp.Holds {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestCompareGeneralForm(t *testing.T) {
	// The general two-query/two-database comparison that Theorems 4 and 5
	// specialize.
	db1 := relation.Single("T", mkrel(t, "A B", "1 x"))
	db2 := relation.Single("T", mkrel(t, "A B", "1 x", "2 y"))
	phi := expr(t, "pi[A](T)", db1)
	contained, equal, err := Compare(phi, db1, phi, db2, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !contained.Holds {
		t.Error("subset database not contained")
	}
	if equal.Holds {
		t.Error("unequal results reported equal")
	}
	if equal.Witness == nil {
		t.Error("missing witness for inequality")
	}
	// Equal case.
	contained, equal, err = Compare(phi, db2, phi, db2, Budget{})
	if err != nil || !contained.Holds || !equal.Holds {
		t.Errorf("self comparison: %+v %+v %v", contained, equal, err)
	}
	// Not contained: short-circuits with equal = contained.
	contained, equal, err = Compare(phi, db2, phi, db1, Budget{})
	if err != nil || contained.Holds || equal.Holds {
		t.Errorf("superset comparison: %+v %+v %v", contained, equal, err)
	}
}

func TestContainedBudget(t *testing.T) {
	db := relation.NewDatabase()
	db.Put("L", mkrel(t, "A", "1", "2", "3", "4", "5"))
	db.Put("R", mkrel(t, "B", "1", "2", "3", "4", "5"))
	big := expr(t, "L * R", db)
	_, err := ContainedFixedRelation(big, big, db, Budget{MaxTuples: 3})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestEquivalentFixedQueryAsymmetric(t *testing.T) {
	phi := expr(t, "pi[A](T)", relation.Single("T", mkrel(t, "A B", "1 x")))
	db1 := relation.Single("T", mkrel(t, "A B", "1 x"))
	db2 := relation.Single("T", mkrel(t, "A B", "1 x", "2 y"))
	// db1 ⊆ db2 so first containment passes, second fails — exercises the
	// second leg of EquivalentFixedQuery.
	eq, err := EquivalentFixedQuery(phi, db1, db2, Budget{})
	if err != nil || eq.Holds {
		t.Errorf("asymmetric equivalence: %+v %v", eq, err)
	}
}

func TestMemberPropagatesErrors(t *testing.T) {
	phi := expr(t, "pi[A](T)", relation.Single("T", mkrel(t, "A B", "1 x")))
	nt := relation.NamedTuple{Scheme: relation.MustScheme("A"), Vals: relation.TupleOf("1")}
	if _, err := Member(nt, phi, relation.NewDatabase()); err == nil {
		t.Error("missing operand accepted")
	}
}

func TestResultSubsetSchemeMismatch(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A](T)", db)
	other := mkrel(t, "Z", "1")
	cmp, err := ResultSubset(phi, db, other, Budget{})
	if err != nil || cmp.Holds {
		t.Errorf("mismatched schemes: %+v %v", cmp, err)
	}
}

// TestSchemeRuleForEveryComparison holds the five comparisons to one rule
// over set-unequal schemes: X ⊆ Y holds exactly when X is empty, X's
// first tuple witnesses the failure otherwise, and equality is both
// containments.
func TestSchemeRuleForEveryComparison(t *testing.T) {
	db := relation.NewDatabase()
	db.Put("T", mkrel(t, "A B", "1 x"))
	db.Put("E", mkrel(t, "A B"))
	db.Put("U", mkrel(t, "A C", "1 p"))
	db.Put("F", mkrel(t, "A C"))
	// Sides are T or E over A B, and U, F or a relation r over A C.
	side := func(empty bool, full, none string) algebra.Expr {
		if empty {
			return expr(t, none, db)
		}
		return expr(t, full, db)
	}
	rel := func(empty bool) *relation.Relation {
		if empty {
			return mkrel(t, "A C")
		}
		return mkrel(t, "A C", "1 p")
	}
	// Each side's one tuple is 1 x (over A B) or 1 p (over A C); a
	// witness is the left side's tuple unless that side is empty.
	procs := []struct {
		name        string
		equal       bool
		left, right relation.Value
		run         func(leftEmpty, rightEmpty bool) (Comparison, error)
	}{
		{"ConjecturedSubset", false, "p", "x", func(l, r bool) (Comparison, error) {
			return ConjecturedSubset(rel(l), side(r, "T", "E"), db, Budget{})
		}},
		{"ResultSubset", false, "x", "p", func(l, r bool) (Comparison, error) {
			return ResultSubset(side(l, "T", "E"), db, rel(r), Budget{})
		}},
		// ResultEquals tests r ⊆ φ(db) first, so r is its left side.
		{"ResultEquals", true, "p", "x", func(l, r bool) (Comparison, error) {
			return ResultEquals(side(r, "T", "E"), db, rel(l), Budget{})
		}},
		{"ContainedFixedRelation", false, "x", "p", func(l, r bool) (Comparison, error) {
			return ContainedFixedRelation(side(l, "T", "E"), side(r, "U", "F"), db, Budget{})
		}},
		{"EquivalentFixedRelation", true, "x", "p", func(l, r bool) (Comparison, error) {
			return EquivalentFixedRelation(side(l, "T", "E"), side(r, "U", "F"), db, Budget{})
		}},
	}
	for _, p := range procs {
		for _, c := range []struct {
			name                  string
			leftEmpty, rightEmpty bool
		}{{"left empty", true, false}, {"right empty", false, true}, {"both", true, true}, {"neither", false, false}} {
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				want := c.leftEmpty && (!p.equal || c.rightEmpty)
				cmp, err := p.run(c.leftEmpty, c.rightEmpty)
				if err != nil {
					t.Fatal(err)
				}
				if cmp.Holds != want {
					t.Fatalf("holds = %v, want %v", cmp.Holds, want)
				}
				if want {
					return
				}
				first := p.left
				if c.leftEmpty {
					first = p.right
				}
				if len(cmp.Witness) != 2 || cmp.WitnessScheme.Len() != 2 || cmp.Witness[1] != first {
					t.Fatalf("witness %v over %v, want the tuple 1 %s", cmp.Witness, cmp.WitnessScheme, first)
				}
			})
		}
	}
}

func TestMemberMatchesEval(t *testing.T) {
	db := testDB(t)
	// Every tuple over the active domain is in π_AC(π_AB(T) ⋈ π_BC(T))
	// iff Member says so.
	proj := expr(t, "pi[A C](pi[A B](T) * pi[B C](T))", db)
	result, err := algebra.Eval(proj, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"1", "2"} {
		for _, c := range []string{"p", "q"} {
			nt := relation.NamedTuple{Scheme: proj.Scheme(), Vals: relation.TupleOf(a, c)}
			got, err := Member(nt, proj, db)
			if err != nil {
				t.Fatal(err)
			}
			if got != result.ContainsNamed(nt) {
				t.Errorf("Member(%s %s) = %v, eval says %v", a, c, got, result.ContainsNamed(nt))
			}
		}
	}
	abc := relation.MustScheme("A", "B", "C")
	// The self-join over T's projections onto A B and B C, tested on each
	// tuple of the active domain: (2 y p) is in both projections value by
	// value, but not in the join, since (y p) ∉ π_BC(T).
	phi := expr(t, "pi[A B](T) * pi[B C](T)", db)
	full, err := algebra.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"1", "2"} {
		for _, b := range []string{"x", "y"} {
			for _, c := range []string{"p", "q"} {
				nt := relation.NamedTuple{Scheme: abc, Vals: relation.TupleOf(a, b, c)}
				got, err := Member(nt, phi, db)
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
	if _, err := Member(bad, expr(t, "pi[A C](T)", db), db); err == nil {
		t.Error("mismatched scheme accepted")
	}
}

func TestMemberReorderedScheme(t *testing.T) {
	db := relation.Single("T", mkrel(t, "A B", "1 x"))
	nt := relation.NamedTuple{Scheme: relation.MustScheme("B", "A"), Vals: relation.TupleOf("x", "1")}
	ok, err := Member(nt, expr(t, "T", db), db)
	if err != nil || !ok {
		t.Errorf("Member reordered = %v, %v", ok, err)
	}
	// ConjecturedSubset reads r's columns by name too.
	cmp, err := ConjecturedSubset(mkrel(t, "B A", "x 1"), expr(t, "T", db), db, Budget{})
	if err != nil || !cmp.Holds {
		t.Errorf("ConjecturedSubset reordered = %+v, %v", cmp, err)
	}
}

// TestDecidersValidateOperands: an operand missing from the database, or
// declared over another scheme than its relation's, is an error from
// every route, never an answer.
func TestDecidersValidateOperands(t *testing.T) {
	phi := expr(t, "T", relation.Single("T", mkrel(t, "A B C")))
	nt := relation.NamedTuple{Scheme: phi.Scheme(), Vals: relation.TupleOf("1", "x", "p")}
	for name, db := range map[string]relation.Database{
		"missing":      relation.NewDatabase(),
		"wrong scheme": relation.Single("T", mkrel(t, "A B", "1 x")),
	} {
		if _, err := Member(nt, phi, db); err == nil {
			t.Errorf("%s: Member accepted it", name)
		}
		if _, err := Count(phi, db, Budget{}); err == nil {
			t.Errorf("%s: Count accepted it", name)
		}
		if _, err := ConjecturedSubset(mkrel(t, "A B C", "1 x p"), phi, db, Budget{}); err == nil {
			t.Errorf("%s: ConjecturedSubset accepted it", name)
		}
	}
}
