package decide

import (
	"errors"
	"slices"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

func TestEnumerateDistinctAndOrder(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A](pi[A B](T) * pi[B C](T))", db)
	var got []string
	err := Enumerate(phi, db, Budget{}, func(tp relation.Tuple) bool {
		got = append(got, string(tp[0]))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("enumerated %v, want 2 distinct values", got)
	}
	seen := map[string]bool{}
	for _, v := range got {
		if seen[v] {
			t.Errorf("duplicate %q yielded", v)
		}
		seen[v] = true
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A B](T) * pi[B C](T)", db)
	count := 0
	err := Enumerate(phi, db, Budget{}, func(relation.Tuple) bool {
		count++
		return false
	})
	if err != nil || count != 1 {
		t.Errorf("count = %d, err = %v", count, err)
	}
}

func TestEnumerateBudget(t *testing.T) {
	db := relation.NewDatabase()
	db.Put("L", mkrel(t, "A", "1", "2", "3", "4"))
	db.Put("R", mkrel(t, "B", "1", "2", "3", "4"))
	phi := expr(t, "L * R", db)
	err := Enumerate(phi, db, Budget{MaxTuples: 3}, func(relation.Tuple) bool { return true })
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestFirst(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A B](T) * pi[B C](T)", db)
	full, err := algebra.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}
	few, err := First(phi, db, 2, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if few.Len() != 2 {
		t.Fatalf("First(2) returned %d tuples", few.Len())
	}
	sub, err := few.SubsetOf(full)
	if err != nil || !sub {
		t.Errorf("First tuples not in the result: %v %v", sub, err)
	}
	// Asking for more than exist returns everything.
	all, err := First(phi, db, 100, Budget{})
	if err != nil || !all.Equal(full) {
		t.Errorf("First(100) = %v tuples, want %d", all.Len(), full.Len())
	}
	if _, err := First(phi, db, -1, Budget{}); err == nil {
		t.Error("negative count accepted")
	}
}

// TestCountHoldsNoTuples: Count remembers nothing per tuple of φ(R), so on
// two Lemma 1 gadgets of one size it allocates the same, up to a small
// constant, although their model counts — |φ_G(R_G)| − |R_G|, Lemma 1 —
// differ at least 256-fold. Both formulas have 9 variables and 21
// clauses: in many every clause holds x1, so at least 2⁸ assignments
// satisfy it; few forces every variable true, with all seven clauses over
// each of three triples that the all-true assignment satisfies.
func TestCountHoldsNoTuples(t *testing.T) {
	var many, few []cnf.Clause
	for a := 2; a <= 9 && len(many) < 21; a++ {
		for b := a + 1; b <= 9 && len(many) < 21; b++ {
			many = append(many, cnf.Clause{1, cnf.Lit(a), cnf.Lit(b)})
		}
	}
	for _, v := range [][3]cnf.Lit{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}} {
		for signs := 0; signs < 7; signs++ { // 7 = all negated: the one the all-true assignment falsifies
			c := cnf.Clause{v[0], v[1], v[2]}
			for i := range c {
				if signs&(1<<i) != 0 {
					c[i] = -c[i]
				}
			}
			few = append(few, c)
		}
	}
	allocs := func(clauses []cnf.Clause) (models int, n float64) {
		g, err := cnf.New(9, clauses...)
		if err != nil {
			t.Fatal(err)
		}
		c, err := reduction.New(g)
		if err != nil {
			t.Fatal(err)
		}
		phi, err := c.PhiG()
		if err != nil {
			t.Fatal(err)
		}
		db := c.Database()
		count := func() int {
			n, err := Count(phi, db, Budget{})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		models = count() - c.R.Len() // and the projections and their tries are facts now
		return models, testing.AllocsPerRun(5, func() { count() })
	}
	manyModels, manyAllocs := allocs(many)
	fewModels, fewAllocs := allocs(few)
	if fewModels != 1 || manyModels < 256 {
		t.Fatalf("model counts %d and %d, want 1 and at least 256", fewModels, manyModels)
	}
	if manyAllocs > fewAllocs+16 || fewAllocs > manyAllocs+16 {
		t.Errorf("Count allocates %v objects over %d models and %v over %d: it holds something per tuple", manyAllocs, manyModels, fewAllocs, fewModels)
	}
}

func TestEnumerateProjectionPushdown(t *testing.T) {
	db := relation.Single("T", mkrel(t, "A B", "1 x", "2 x"))
	// pi[B](T): the A column is an existential don't-care, so the stream
	// holds the distinct B-projections — exactly one yield, not one per
	// source tuple.
	count := 0
	if err := Enumerate(expr(t, "pi[B](T)", db), db, Budget{}, func(relation.Tuple) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("stream yielded %d, want 1 (projection pushdown)", count)
	}
}

func TestEnumerateDuplicatesAcrossRowsAndEarlyStop(t *testing.T) {
	db := relation.Single("T", mkrel(t, "A B C", "1 x p", "1 y q"))
	// pi[A](pi[A B](T) * pi[B C](T)): A=1 arises from two (A,B) patterns,
	// two witnesses with one image. The search binds A first and stops at
	// its first witness, so the stream yields (1) once.
	phi := expr(t, "pi[A](pi[A B](T) * pi[B C](T))", db)
	count := 0
	if err := Enumerate(phi, db, Budget{}, func(tp relation.Tuple) bool {
		if tp[0] != "1" {
			t.Errorf("unexpected tuple %v", tp)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("stream yielded %d, want 1 (one tuple, however many witnesses)", count)
	}
	// Early stop.
	count = 0
	if err := Enumerate(phi, db, Budget{}, func(relation.Tuple) bool {
		count++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("stream after stop yielded %d", count)
	}
}

// TestEnumerateYieldsTuplesTheCalleeMustClone pins Enumerate's contract
// on a join node, whose answer streams as the search finds it: each tuple
// of φ(db) is yielded once, in one tuple the stream reuses — so the
// stream allocates nothing per tuple, and a caller that keeps a tuple
// clones it.
func TestEnumerateYieldsTuplesTheCalleeMustClone(t *testing.T) {
	db := relation.Single("T", mkrel(t, "A B C", "1 x p", "2 x q", "2 y q", "3 y r"))
	phi := expr(t, "pi[A B](T) * pi[B C](T)", db)
	var kept, copies []relation.Tuple
	if err := Enumerate(phi, db, Budget{}, func(tp relation.Tuple) bool {
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
	want, err := algebra.Eval(phi, db)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(copies, relation.Tuple.Compare)
	if got := want.Sorted(); !slices.EqualFunc(got, copies, relation.Tuple.Equal) {
		t.Errorf("the clones are %v, φ(db) is %v", copies, got)
	}
}
