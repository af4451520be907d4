package join

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/relation"
)

func benchRelation(rng *rand.Rand, scheme relation.Scheme, rows, keys int) *relation.Relation {
	r := relation.New(scheme)
	for i := 0; i < rows; i++ {
		r.MustAdd(relation.TupleOf(
			fmt.Sprintf("k%d", rng.Intn(keys)),
			fmt.Sprintf("v%d", i),
		))
	}
	return r
}

// BenchmarkBinaryJoin compares the algorithms across input sizes.
// Expected shape: nested-loop quadratic, hash and sort-merge near-linear
// in |input| + |output|.
func BenchmarkBinaryJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{100, 400} {
		left := benchRelation(rng, relation.MustScheme("K", "A"), rows, rows/10)
		right := benchRelation(rng, relation.MustScheme("K", "B"), rows, rows/10)
		for _, name := range Names() {
			alg, err := ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := alg.Join(Exec{}, left, right); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMultiOrder compares sequential and greedy n-ary ordering on a
// star join where ordering matters.
func BenchmarkMultiOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	center := benchRelation(rng, relation.MustScheme("K", "A"), 300, 30)
	sat1 := benchRelation(rng, relation.MustScheme("K", "B"), 300, 30)
	sat2 := benchRelation(rng, relation.MustScheme("A", "C"), 300, 300)
	inputs := []*relation.Relation{sat2, sat1, center}
	for _, order := range []Order{Sequential, Greedy} {
		b.Run(order.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Multi(Exec{}, NewPlan(inputs...), Hash{}, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
