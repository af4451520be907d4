package tableau

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// BenchmarkEvalVsMaterialize compares the tableau engine against
// materializing evaluation on a chain of projections whose intermediate
// joins exceed the output.
func BenchmarkEvalVsMaterialize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scheme := relation.MustScheme("A", "B", "C", "D")
	r := relation.New(scheme)
	for i := 0; i < 200; i++ {
		r.MustAdd(relation.TupleOf(
			fmt.Sprintf("%d", rng.Intn(10)),
			fmt.Sprintf("%d", rng.Intn(10)),
			fmt.Sprintf("%d", rng.Intn(10)),
			fmt.Sprintf("%d", rng.Intn(10)),
		))
	}
	db := relation.Single("T", r)
	e, err := algebra.ParseForDatabase("pi[A D](pi[A B](T) * pi[B C](T) * pi[C D](T))", db)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("tableau", func(b *testing.B) {
		tb, err := New(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tb.Eval(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := algebra.Eval(e, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMember measures the Proposition 2 membership test for present
// and absent tuples.
func BenchmarkMember(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	scheme := relation.MustScheme("A", "B", "C")
	r := relation.New(scheme)
	for i := 0; i < 300; i++ {
		r.MustAdd(relation.TupleOf(
			fmt.Sprintf("%d", rng.Intn(20)),
			fmt.Sprintf("%d", rng.Intn(20)),
			fmt.Sprintf("%d", rng.Intn(20)),
		))
	}
	db := relation.Single("T", r)
	e, err := algebra.ParseForDatabase("pi[A C](pi[A B](T) * pi[B C](T))", db)
	if err != nil {
		b.Fatal(err)
	}
	tb, err := New(e)
	if err != nil {
		b.Fatal(err)
	}
	hit := relation.NamedTuple{Scheme: relation.MustScheme("A", "C"),
		Vals: relation.Tuple{r.Tuple(0)[0], r.Tuple(0)[2]}}
	miss := relation.NamedTuple{Scheme: relation.MustScheme("A", "C"),
		Vals: relation.TupleOf("nope", "nada")}
	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tb.Member(hit, db, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tb.Member(miss, db, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
