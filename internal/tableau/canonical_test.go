package tableau

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relquery/internal/algebra"
	"relquery/internal/decide"
	"relquery/internal/relation"
)

func TestCanonicalDatabaseShape(t *testing.T) {
	const src = "pi[A B](T) * pi[B C](T)"
	tb := tbOf(t, src)
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
	ok, err := decide.Member(tb.FrozenSummary(), parse(t, src, abcScheme), db)
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
		viaCanon, err := t1.ContainedInViaCanonical(parse(t, p[1], abcScheme))
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
		viaCanon, err := t1.ContainedInViaCanonical(e2)
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
	e1, e2 := parse(t, "pi[A B](T) * pi[B C](T)", abcScheme), parse(t, "pi[A B C](T)", abcScheme)
	q1, err := New(e1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := New(e2)
	if err != nil {
		t.Fatal(err)
	}
	contained, err := q1.ContainedIn(q2)
	if err != nil || contained {
		t.Fatalf("setup: %v %v", contained, err)
	}
	db, err := q1.CanonicalDatabase()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := algebra.Eval(e1, db)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := algebra.Eval(e2, db)
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
	if _, err := a.ContainedInViaCanonical(parse(t, "pi[B](T)", abcScheme)); err == nil {
		t.Error("different targets accepted")
	}
	// Query over a foreign operand.
	other, err := algebra.Parse("pi[A](U2)", map[string]relation.Scheme{
		"U2": relation.MustScheme("A", "B"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ContainedInViaCanonical(other); err == nil {
		t.Error("foreign operand accepted")
	}
}
