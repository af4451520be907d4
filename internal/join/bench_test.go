package join_test

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/cnf"
	"relquery/internal/join"
	"relquery/internal/reduction"
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
// Expected shape: near-linear in |input| + |output| for every algorithm.
func BenchmarkBinaryJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{100, 400} {
		left := benchRelation(rng, relation.MustScheme("K", "A"), rows, rows/10)
		right := benchRelation(rng, relation.MustScheme("K", "B"), rows, rows/10)
		for _, name := range join.Names() {
			alg, err := join.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/rows=%d", name, rows), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := join.Multi(join.Exec{}, join.NewPlan(left, right), alg, join.Greedy); err != nil {
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
	for _, order := range []join.Order{join.Sequential, join.Greedy} {
		b.Run(order.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := join.Multi(join.Exec{}, join.NewPlan(inputs...), join.Hash{}, order); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gadgetLegs materializes the projection legs of φ_G(R_G): π_F(R_G) and
// each π_{T_j}(R_G).
func gadgetLegs(b *testing.B, g *cnf.Formula) []*relation.Relation {
	b.Helper()
	c, err := reduction.New(g)
	if err != nil {
		b.Fatal(err)
	}
	legs := []*relation.Relation{}
	f, err := c.R.Project(c.FScheme())
	if err != nil {
		b.Fatal(err)
	}
	legs = append(legs, f)
	for j := 1; j <= c.M(); j++ {
		tj, err := c.TJScheme(j)
		if err != nil {
			b.Fatal(err)
		}
		leg, err := c.R.Project(tj)
		if err != nil {
			b.Fatal(err)
		}
		legs = append(legs, leg)
	}
	return legs
}

// BenchmarkPlanFacts is what an auto node or an admission gate pays to know
// its join node — AGM bound and predicted peak, so the n-ary cover LP, the
// greedy simulation and its subset LPs — on a relbench gadget (8 variables,
// 7 clauses: the first shape of bench/workload.go's gadgetShapes) and on
// pigeonhole1: cold from nothing, and warm through a Facts that already
// holds them, which is what a request finds in a shared cache.
func BenchmarkPlanFacts(b *testing.B) {
	rng := rand.New(rand.NewSource(1983))
	var m7 *cnf.Formula
	for m7 == nil || !m7.AllVarsUsed() {
		var err error
		if m7, err = cnf.Random3CNF(rng, 8, 7); err != nil {
			b.Fatal(err)
		}
	}
	php1, err := cnf.Pigeonhole(1)
	if err != nil {
		b.Fatal(err)
	}
	php1, _ = cnf.Compact(php1)
	for _, w := range []struct {
		name string
		g    *cnf.Formula
	}{{"m7", m7}, {"pigeonhole1", php1}} {
		legs := gadgetLegs(b, w.g)
		predict := func(b *testing.B, facts func() *join.Facts) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p := facts().Plan(legs...); p.AGMBound() == 0 || p.Peak() == 0 {
					b.Fatal("no prediction")
				}
			}
		}
		b.Run("cold/"+w.name, func(b *testing.B) { predict(b, func() *join.Facts { return new(join.Facts) }) })
		known := new(join.Facts)
		p := known.Plan(legs...)
		p.Peak()
		p.AGMBound()
		b.Run("warm/"+w.name, func(b *testing.B) { predict(b, func() *join.Facts { return known }) })
	}
}
