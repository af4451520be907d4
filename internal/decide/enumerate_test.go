package decide

import (
	"errors"
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
