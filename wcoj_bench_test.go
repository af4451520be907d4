// Benchmarks for the worst-case-optimal generic join on the Lemma 1
// blow-up families: the greedy binary plan materializes intermediates far
// above the final output, while the generic join materializes only the
// output the AGM bound already pays for. Recorded numbers live in
// BENCH_wcoj.txt (regenerate with `make wcoj-bench`); the shape that must
// hold is peak_rows collapsing to ≤ agm_bound under wcoj.
package relquery_test

import (
	"fmt"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// BenchmarkWCOJLemma1 evaluates φ_G(R_G) on each gadget family with the
// greedy hash plan, the forced generic join, and the auto selector. Each
// configuration reports the peak materialized join cardinality
// (peak_rows) and the root join node's AGM bound (agm_bound) so the
// before/after collapse is visible in the benchmark output itself.
func BenchmarkWCOJLemma1(b *testing.B) {
	xor, err := cnf.XorChain(2, true)
	if err != nil {
		b.Fatal(err)
	}
	xor, _ = cnf.Compact(xor)
	php, err := cnf.Pigeonhole(1)
	if err != nil {
		b.Fatal(err)
	}
	php, _ = cnf.Compact(php)
	for _, fam := range []struct {
		name string
		g    *cnf.Formula
	}{
		{"xorchain2", xor},
		{"pigeonhole1", php},
	} {
		c, err := reduction.New(fam.g)
		if err != nil {
			b.Fatal(err)
		}
		phi, err := c.PhiG()
		if err != nil {
			b.Fatal(err)
		}
		db := c.Database()
		for _, cfg := range []struct {
			name string
			ev   func() algebra.Evaluator
		}{
			{"greedy", func() algebra.Evaluator {
				return algebra.Evaluator{Order: join.Greedy}
			}},
			{"wcoj", func() algebra.Evaluator {
				return algebra.Evaluator{Algorithm: join.Generic{}, Order: join.Greedy}
			}},
			{"auto", func() algebra.Evaluator {
				return algebra.Evaluator{Order: join.Greedy, AutoWCOJ: true}
			}},
		} {
			b.Run(fmt.Sprintf("%s/%s", fam.name, cfg.name), func(b *testing.B) {
				b.ReportAllocs()
				var peak int
				var bound float64
				for i := 0; i < b.N; i++ {
					col := &obs.Collector{}
					ev := cfg.ev()
					ev.Collector = col
					if _, err := ev.Eval(phi, db); err != nil {
						b.Fatal(err)
					}
					root := col.Trace().Root()
					peak = maxJoinRowsBench(root)
					bound = rootJoinAGMBound(root)
				}
				b.ReportMetric(float64(peak), "peak_rows")
				b.ReportMetric(bound, "agm_bound")
			})
		}
	}
}

// maxJoinRowsBench mirrors the test helper maxJoinRows without requiring
// a *testing.T.
func maxJoinRowsBench(sp *obs.Span) int {
	if sp == nil {
		return 0
	}
	best := 0
	if sp.Op == obs.OpJoin {
		best = sp.OutputRows
		if sp.MaxIntermediate > best {
			best = sp.MaxIntermediate
		}
	}
	for _, c := range sp.Children {
		if m := maxJoinRowsBench(c); m > best {
			best = m
		}
	}
	return best
}

// rootJoinAGMBound returns the AGM bound of the outermost join span.
func rootJoinAGMBound(sp *obs.Span) float64 {
	if sp == nil {
		return 0
	}
	if sp.Op == obs.OpJoin {
		return sp.AGMBound
	}
	for _, c := range sp.Children {
		if b := rootJoinAGMBound(c); b > 0 {
			return b
		}
	}
	return 0
}

// BenchmarkGenericJoinDirect measures the generic join head-to-head with
// the greedy binary plan on the materialized gadget legs, without the
// evaluator around it. The legs are the same relations every iteration, so
// from the second on the generic join finds its tries sorted — facts of
// the legs — while the hash plan builds its tables per call, as both do in
// relqueryd over an unchanged catalog.
func BenchmarkGenericJoinDirect(b *testing.B) {
	xor, err := cnf.XorChain(2, true)
	if err != nil {
		b.Fatal(err)
	}
	xor, _ = cnf.Compact(xor)
	c, err := reduction.New(xor)
	if err != nil {
		b.Fatal(err)
	}
	legs, err := benchGadgetLegs(c)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("greedy-hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := join.Multi(join.Exec{}, join.NewPlan(legs...), join.Hash{}, join.Greedy); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wcoj", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (join.Generic{}).JoinAll(join.Exec{}, join.NewPlan(legs...)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchGadgetLegs materializes φ_G's projection legs for direct joining.
func benchGadgetLegs(c *reduction.Construction) ([]*relation.Relation, error) {
	f, err := c.R.Project(c.FScheme())
	if err != nil {
		return nil, err
	}
	legs := []*relation.Relation{f}
	for j := 1; j <= c.M(); j++ {
		tj, err := c.TJScheme(j)
		if err != nil {
			return nil, err
		}
		leg, err := c.R.Project(tj)
		if err != nil {
			return nil, err
		}
		legs = append(legs, leg)
	}
	return legs, nil
}
