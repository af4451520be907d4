package tableau

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

func TestCanonicalDatabaseShape(t *testing.T) {
	tb := tbOf(t, "pi[A B](T) * pi[B C](T)")
	db, err := tb.CanonicalDatabase()
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.Get("T")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("canonical relation has %d rows, want 2", r.Len())
	}
	// The frozen summary is produced by the query on its own canonical db.
	ok, err := tb.Member(tb.FrozenSummary(), db, nil)
	if err != nil || !ok {
		t.Errorf("frozen summary not in own canonical result: %v %v", ok, err)
	}
}

func TestContainedInViaCanonicalMatchesHomomorphism(t *testing.T) {
	pairs := [][2]string{
		{"pi[A B C](T)", "pi[A B](T) * pi[B C](T)"},
		{"pi[A B](T) * pi[B C](T)", "pi[A B C](T)"},
		{"T * T", "T"},
		{"pi[A](pi[A B](T) * pi[B C](T))", "pi[A](T)"},
		{"pi[A](T)", "pi[A](pi[A B](T) * pi[B C](T))"},
	}
	for _, p := range pairs {
		t1 := tbOf(t, p[0])
		t2 := tbOf(t, p[1])
		viaHom, err := t1.ContainedIn(t2)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		viaCanon, err := t1.ContainedInViaCanonical(t2)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if viaHom != viaCanon {
			t.Errorf("%v: hom says %v, canonical says %v", p, viaHom, viaCanon)
		}
	}
}

func TestQuickCanonicalAgreesWithHomomorphism(t *testing.T) {
	srcs := []string{
		"pi[A B C](T)",
		"pi[A B](T) * pi[B C](T)",
		"pi[A B](T) * pi[B C](T) * pi[A C](T)",
		"pi[A](T) * pi[B C](T)",
		"T * T",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1 := srcs[rng.Intn(len(srcs))]
		s2 := srcs[rng.Intn(len(srcs))]
		e1, err := algebra.Parse(s1, abcScheme)
		if err != nil {
			return false
		}
		e2, err := algebra.Parse(s2, abcScheme)
		if err != nil {
			return false
		}
		if !e1.Scheme().Equal(e2.Scheme()) {
			return true // incomparable targets; nothing to check
		}
		t1, err := New(e1)
		if err != nil {
			return false
		}
		t2, err := New(e2)
		if err != nil {
			return false
		}
		viaHom, err := t1.ContainedIn(t2)
		if err != nil {
			return false
		}
		viaCanon, err := t1.ContainedInViaCanonical(t2)
		if err != nil {
			return false
		}
		return viaHom == viaCanon
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCanonicalCounterexample(t *testing.T) {
	// q1 = pi[A C](T) is NOT contained in the recombination query; the
	// canonical database must witness it.
	q1 := tbOf(t, "pi[A B](T) * pi[B C](T)")
	q2 := tbOf(t, "pi[A B C](T)")
	contained, err := q1.ContainedIn(q2)
	if err != nil || contained {
		t.Fatalf("setup: %v %v", contained, err)
	}
	db, err := q1.CanonicalDatabase()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := q1.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q2.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	frozen := q1.FrozenSummary()
	if !r1.ContainsNamed(frozen) {
		t.Error("canonical db does not produce the frozen summary under q1")
	}
	if r2.ContainsNamed(frozen) {
		t.Error("counterexample db produces the frozen summary under q2 too")
	}
}

func TestContainedInViaCanonicalErrors(t *testing.T) {
	a := tbOf(t, "pi[A](T)")
	b := tbOf(t, "pi[B](T)")
	if _, err := a.ContainedInViaCanonical(b); err == nil {
		t.Error("different targets accepted")
	}
	// Query over a foreign operand.
	other, err := algebra.Parse("pi[A](U2)", map[string]relation.Scheme{
		"U2": relation.MustScheme("A", "B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tb2, err := New(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ContainedInViaCanonical(tb2); err == nil {
		t.Error("foreign operand accepted")
	}
}
