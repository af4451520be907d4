// Benchmarks for the Yannakakis full reducer on the acyclic blow-up
// families: the greedy binary plan materializes the quadratic dangling
// cross product, the full reducer deletes the dangling tuples first and
// never materializes above the output. Recorded numbers live in
// BENCH_acyclic.txt (regenerate with `make acyclic-bench`); the shape
// that must hold is peak_rows collapsing to ≤ output + largest input
// under yannakakis and auto.
package relquery_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// BenchmarkAcyclicYannakakis evaluates each acyclic family with the
// greedy hash plan, the forced generic join, the forced full reducer,
// and the full auto selector. Each configuration reports the peak
// materialized join cardinality (peak_rows) and the root join node's AGM
// bound (agm_bound) so the before/after collapse is visible in the
// benchmark output itself.
//
// The full reducer's edge tables are facts of its input relations, so
// from the second iteration on the yannakakis and auto rows find them
// built — a server's steady state over an unchanged catalog. Their /cold
// twins evaluate over fresh copies of the relations, made outside the
// timer, and build every table. yannakakis/governed is the yannakakis row
// under a live governor (a 30 s deadline no run reaches): against the
// ungoverned row it prices the tick in the tree join's hot loops.
func BenchmarkAcyclicYannakakis(b *testing.B) {
	families, err := buildAcyclicFamilies()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"path", "star", "snowflake"} {
		fam := families[name]
		for _, cfg := range []struct {
			name string
			ev   func() algebra.Evaluator
			cold bool
		}{
			{"greedy", func() algebra.Evaluator {
				return algebra.Evaluator{Order: join.Greedy}
			}, false},
			{"wcoj", func() algebra.Evaluator {
				return algebra.Evaluator{Algorithm: join.Generic{}, Order: join.Greedy}
			}, false},
			{"yannakakis", func() algebra.Evaluator {
				return algebra.Evaluator{Algorithm: join.Yannakakis{}, Order: join.Greedy}
			}, false},
			{"yannakakis/cold", func() algebra.Evaluator {
				return algebra.Evaluator{Algorithm: join.Yannakakis{}, Order: join.Greedy}
			}, true},
			{"yannakakis/governed", func() algebra.Evaluator {
				return algebra.Evaluator{Algorithm: join.Yannakakis{}, Order: join.Greedy, Limits: governor.Limits{Deadline: 30 * time.Second}}
			}, false},
			{"auto", func() algebra.Evaluator {
				return algebra.Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true}
			}, false},
			{"auto/cold", func() algebra.Evaluator {
				return algebra.Evaluator{Order: join.Greedy, AutoWCOJ: true, AutoYannakakis: true}
			}, true},
		} {
			b.Run(fmt.Sprintf("%s/%s", name, cfg.name), func(b *testing.B) {
				b.ReportAllocs()
				var peak int
				var bound float64
				for i := 0; i < b.N; i++ {
					db := fam.db
					if cfg.cold {
						b.StopTimer()
						db = cloneDB(db)
						b.StartTimer()
					}
					col := &obs.Collector{}
					ev := cfg.ev()
					ev.Collector = col
					if _, err := ev.Eval(fam.expr, db); err != nil {
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

// BenchmarkFullReducerDirect measures the full reducer head-to-head with
// the greedy binary plan on the path family's relations, without the
// evaluator around it: warm, over relations whose edge tables the first
// iteration memoized, and cold, over fresh copies made outside the timer.
func BenchmarkFullReducerDirect(b *testing.B) {
	families, err := buildAcyclicFamilies()
	if err != nil {
		b.Fatal(err)
	}
	fam := families["path"]
	rels := relsOf(b, fam)
	b.Run("greedy-hash", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := join.Multi(join.Exec{}, join.NewPlan(rels...), join.Hash{}, join.Greedy); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("yannakakis", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := (join.Yannakakis{}).JoinAll(join.Exec{}, join.NewPlan(rels...)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("yannakakis/cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := make([]*relation.Relation, len(rels))
			for k, r := range rels {
				fresh[k] = r.Clone()
			}
			b.StartTimer()
			if _, err := (join.Yannakakis{}).JoinAll(join.Exec{}, join.NewPlan(fresh...)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTreeJoinState runs the tree join warm over relbench's three
// acyclic families at 1 024 dangling rows a leg (relbenchFamilies), its
// answer of 1 025 rows written into a sink that keeps none: the edge
// tables, the tries of untouched inputs and the plan's facts are built by
// a run before the timer starts, so B/op is what one evaluation keeps of its inputs
// — the dead sets, the group flags and counts, the links of the rows that
// reach the output, the tries of the reduced inputs — and not the answer.
func BenchmarkTreeJoinState(b *testing.B) {
	for _, fam := range relbenchFamilies(1024) {
		b.Run(fam.name, func(b *testing.B) {
			p, out := join.NewPlan(fam.rels...), new(rowCount)
			run := func() {
				*out = 0
				if _, err := (join.Yannakakis{}).JoinAll(join.Exec{Out: out}, p); err != nil || *out != 1025 {
					b.Fatal(*out, err)
				}
			}
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// rowCount is a sink that counts the rows written into it.
type rowCount int

func (c *rowCount) Begin(relation.Scheme, int) bool { return true }
func (c *rowCount) Row(relation.Tuple) bool         { *c++; return true }

// relbenchFamily is one of relbench's acyclic join families: its inputs.
type relbenchFamily struct {
	name string
	rels []*relation.Relation
}

// relbenchFamilies builds the acyclic families relbench serves (its
// acyclicFamily), n dangling rows and one live row a leg: the path
// R1(A B) R2(B C) R3(C D), the star L1(A B) L2(A C) L3(A D) around A and
// the snowflake FACT(A B C) with arms D1(A D) D2(B E) D3(C F). Each joins
// to n+1 rows.
func relbenchFamilies(n int) []relbenchFamily {
	leg := func(attrs string, row func(i int) relation.Tuple, last relation.Tuple) *relation.Relation {
		r := relation.New(relation.MustScheme(toAttrs(strings.Fields(attrs))...))
		for i := 0; i < n; i++ {
			r.MustAdd(row(i))
		}
		r.MustAdd(last)
		return r
	}
	v := func(prefix string) func(i int) relation.Value {
		return func(i int) relation.Value { return relation.Value(fmt.Sprint(prefix, i)) }
	}
	a, b, c, d, e, f := v("a"), v("b"), v("c"), v("d"), v("e"), v("f")
	fanout := func(key string, val func(int) relation.Value) func(int) relation.Tuple {
		return func(i int) relation.Tuple { return relation.Tuple{relation.Value(key), val(i)} }
	}
	return []relbenchFamily{
		{"path", []*relation.Relation{
			leg("A B", func(i int) relation.Tuple { return relation.Tuple{a(i), "b0"} }, relation.TupleOf("a*", "b1")),
			leg("B C", fanout("b0", c), relation.TupleOf("b1", "c*")),
			leg("C D", fanout("c*", d), relation.TupleOf("c*", "d*")),
		}},
		{"star", []*relation.Relation{
			leg("A B", fanout("h0", b), relation.TupleOf("h1", "b*")),
			leg("A C", fanout("h0", c), relation.TupleOf("h1", "c*")),
			leg("A D", fanout("h1", d), relation.TupleOf("h1", "d*")),
		}},
		{"snowflake", []*relation.Relation{
			leg("A B C", func(i int) relation.Tuple { return relation.Tuple{"a0", b(i), c(i)} }, relation.TupleOf("a1", "b*", "c*")),
			leg("A D", fanout("a0", d), relation.TupleOf("a1", "d*")),
			leg("B E", func(i int) relation.Tuple { return relation.Tuple{"bdead" + b(i), e(i)} }, relation.TupleOf("b*", "e*")),
			leg("C F", fanout("c*", f), relation.TupleOf("c*", "f*")),
		}},
	}
}

// cloneDB returns a copy of db whose relations are fresh copies: equal
// content, no memoized access path.
func cloneDB(db relation.Database) relation.Database {
	out := relation.NewDatabase()
	for name, r := range db {
		out.Put(name, r.Clone())
	}
	return out
}

// relsOf materializes a family's base relations in deterministic order.
func relsOf(b *testing.B, fam acyclicFamily) []*relation.Relation {
	b.Helper()
	rels := make([]*relation.Relation, 0, len(fam.db))
	for _, name := range fam.db.Names() {
		r, err := fam.db.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		rels = append(rels, r)
	}
	return rels
}
