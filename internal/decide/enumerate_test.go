package decide

import (
	"errors"
	"testing"

	"relquery/internal/algebra"
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
