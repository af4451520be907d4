package decide

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// BenchmarkEvalVsMaterialize compares the deciders' stream against
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
	b.Run("enumerate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Count(e, db, Budget{}); err != nil {
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
// and absent tuples, on a membership query built once, as the deciders
// that ask many times build it.
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
	m, err := newMember(e, db)
	if err != nil {
		b.Fatal(err)
	}
	hit := relation.NamedTuple{Scheme: relation.MustScheme("A", "C"),
		Vals: relation.Tuple{r.Tuple(0)[0], r.Tuple(0)[2]}}
	miss := relation.NamedTuple{Scheme: relation.MustScheme("A", "C"),
		Vals: relation.TupleOf("nope", "nada")}
	for _, c := range []struct {
		name string
		nt   relation.NamedTuple
		want bool
	}{{"hit", hit, true}, {"miss", miss, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok, err := m.test(c.nt, nil); err != nil || ok != c.want {
					b.Fatal(ok, err)
				}
			}
		})
	}
}
