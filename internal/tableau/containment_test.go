package tableau

import (
	"math/rand"
	"testing"
	"testing/quick"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

func tbOf(t *testing.T, src string) *Tableau {
	t.Helper()
	tb, err := New(parse(t, src, abcScheme))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestContainmentFixedCases(t *testing.T) {
	// T ⊑ π_AB(T)*π_BC(T): the project-join relaxation always contains the
	// original projection... compare over the same target: use full scheme.
	orig := tbOf(t, "pi[A B C](T)")
	relaxed := tbOf(t, "pi[A B](T) * pi[B C](T)")

	le, err := orig.ContainedIn(relaxed)
	if err != nil {
		t.Fatal(err)
	}
	if !le {
		t.Error("T ⊑ π_AB(T)*π_BC(T) should hold")
	}
	ge, err := relaxed.ContainedIn(orig)
	if err != nil {
		t.Fatal(err)
	}
	if ge {
		t.Error("π_AB(T)*π_BC(T) ⊑ T should fail")
	}
	eq, err := orig.EquivalentTo(relaxed)
	if err != nil || eq {
		t.Errorf("equivalence = %v, %v", eq, err)
	}
}

func TestContainmentRedundantJoin(t *testing.T) {
	// T*T ≡ T (over the full scheme).
	a := tbOf(t, "T * T")
	b := tbOf(t, "T")
	eq, err := a.EquivalentTo(b)
	if err != nil || !eq {
		t.Errorf("T*T ≡ T: %v, %v", eq, err)
	}
}

func TestContainmentDifferentTargets(t *testing.T) {
	a := tbOf(t, "pi[A](T)")
	b := tbOf(t, "pi[B](T)")
	if _, err := a.ContainedIn(b); err == nil {
		t.Error("different targets accepted")
	}
}

func TestQuickContainmentSoundOnRandomDatabases(t *testing.T) {
	// If hom-containment says φ1 ⊑ φ2, then φ1(db) ⊆ φ2(db) for every db.
	pairs := [][2]string{
		{"pi[A B C](T)", "pi[A B](T) * pi[B C](T)"},
		{"pi[A](pi[A B C](T))", "pi[A](pi[A B](T) * pi[B C](T))"},
		{"pi[A B](T) * pi[B C](T)", "pi[A B](T) * pi[B C](T) * pi[A C](T)"},
		{"T * T", "T"},
	}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := pairs[int(pick)%len(pairs)]
		e1, err := algebra.Parse(p[0], abcScheme)
		if err != nil {
			return false
		}
		e2, err := algebra.Parse(p[1], abcScheme)
		if err != nil {
			return false
		}
		t1, err := New(e1)
		if err != nil {
			return false
		}
		t2, err := New(e2)
		if err != nil {
			return false
		}
		contained, err := t1.ContainedIn(t2)
		if err != nil {
			return false
		}
		db := relation.Single("T", randomRelation(rng, relation.MustScheme("A", "B", "C"), 8))
		r1, err := algebra.Eval(e1, db)
		if err != nil {
			return false
		}
		r2, err := algebra.Eval(e2, db)
		if err != nil {
			return false
		}
		sub, err := r1.SubsetOf(r2)
		if err != nil {
			return false
		}
		if contained && !sub {
			return false // unsound!
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMinimizeRemovesRedundantRows(t *testing.T) {
	// T * T has two identical rows; minimization keeps one.
	tb := tbOf(t, "T * T")
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	min, err := tb.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Rows) != 1 {
		t.Errorf("minimized rows = %d, want 1", len(min.Rows))
	}
	eq, err := tb.EquivalentTo(min)
	if err != nil || !eq {
		t.Errorf("minimized tableau not equivalent: %v %v", eq, err)
	}
}

func TestMinimizeKeepsNecessaryRows(t *testing.T) {
	tb := tbOf(t, "pi[A B](T) * pi[B C](T)")
	min, err := tb.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Rows) != 2 {
		t.Errorf("minimized rows = %d, want 2 (both rows necessary)", len(min.Rows))
	}
}

func TestMinimizePreservesSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		srcs := []string{
			"T * T",
			"pi[A B](T) * pi[B C](T) * pi[A B](T)",
			"pi[A](pi[A B](T) * pi[B C](T))",
			"pi[A B](T) * pi[A B C](T)",
		}
		src := srcs[rng.Intn(len(srcs))]
		e, err := algebra.Parse(src, abcScheme)
		if err != nil {
			return false
		}
		tb, err := New(e)
		if err != nil {
			return false
		}
		min, err := tb.Minimize()
		if err != nil {
			return false
		}
		db := relation.Single("T", randomRelation(rng, relation.MustScheme("A", "B", "C"), 8))
		return valuate(t, tb, db).Equal(valuate(t, min, db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
