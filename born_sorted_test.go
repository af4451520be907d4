package relquery_test

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
	"relquery/internal/sat"
)

// bornInOrder reports whether r is marked sorted and its insertion order is
// the order a real sort of its rows finds: a Clone carries no mark, so
// sorting it sorts.
func bornInOrder(r *relation.Relation) bool {
	return r.BornSorted() && slices.EqualFunc(r.Tuples(), r.Clone().Sorted(), relation.Tuple.Equal)
}

// TestAnswersAreBornSorted: no sort runs for a generic-join answer (each
// Lemma 1 family) or a tree-join answer (each acyclic family). The answer
// is marked sorted and is in order; streaming it builds no permutation —
// it makes fewer allocations than streaming an unmarked copy of it, which
// sorts — and writes the copy's bytes. A hash-join answer carries no mark
// and sorts when it is streamed: a fresh copy of it makes more
// allocations than the answer once its order is memoized.
func TestAnswersAreBornSorted(t *testing.T) {
	bw := bufio.NewWriter(io.Discard) // adopted by the codec: no buffer of its own
	// allocs is how many allocations streaming each of rs makes, on
	// average over them. A count, not a byte total: the runtime's own
	// allocations move a byte total between runs, and they do not add one
	// allocation to every stream.
	allocs := func(rs []*relation.Relation) float64 {
		k := 0
		return testing.AllocsPerRun(len(rs)-1, func() {
			if err := relation.WriteRelation(bw, "result", rs[k]); err != nil {
				t.Fatal(err)
			}
			k++
		})
	}
	const streams = 32
	check := func(t *testing.T, expr algebra.Expr, db relation.Database, strategy string, born bool) {
		t.Helper()
		var ev algebra.Evaluator
		if err := ev.SetStrategy(strategy); err != nil {
			t.Fatal(err)
		}
		got, err := ev.Eval(expr, db)
		if err != nil {
			t.Fatal(err)
		}
		same, copies := make([]*relation.Relation, streams), make([]*relation.Relation, streams)
		for i := range copies {
			same[i], copies[i] = got, got.Clone()
		}
		if !born {
			if got.BornSorted() {
				t.Fatalf("%s: the answer is marked sorted", strategy)
			}
			if memo, sorting := allocs(same), allocs(copies); sorting <= memo {
				t.Errorf("%s: streaming a fresh copy of the answer made %v allocations, the answer with its order memoized %v: no permutation was built", strategy, sorting, memo)
			}
			return
		}
		if !bornInOrder(got) {
			t.Fatalf("%s: the answer is not born sorted", strategy)
		}
		if own, sorting := allocs(same), allocs(copies); own >= sorting {
			t.Errorf("%s: streaming the answer made %v allocations, an unmarked copy %v: a permutation was built", strategy, own, sorting)
		}
		var a, b bytes.Buffer
		if err := relation.WriteRelation(&a, "result", got); err != nil {
			t.Fatal(err)
		}
		if err := relation.WriteRelation(&b, "result", copies[0]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: the answer writes other bytes than its sorted copy", strategy)
		}
	}
	for name, g := range lemma1Families(t) {
		t.Run(name, func(t *testing.T) {
			c, err := reduction.New(g)
			if err != nil {
				t.Fatal(err)
			}
			phi, err := c.PhiG()
			if err != nil {
				t.Fatal(err)
			}
			check(t, phi, c.Database(), "wcoj", true)
			check(t, phi, c.Database(), "hash", false)
		})
	}
	for name, fam := range acyclicFamilies(t) {
		t.Run(name, func(t *testing.T) {
			check(t, fam.expr, fam.db, "yannakakis", true)
			check(t, fam.expr, fam.db, "auto", true)
			check(t, fam.expr, fam.db, "hash", false)
		})
	}
}

// FuzzLemma1Count holds the engine to Lemma 1 as a counting identity. On a
// random 3CNF G over n ≤ 8 variables, each occurring in some clause,
// φ_G(R_G) = R_G ∪ R̃_G, where R̃_G has one row per model of G and no row
// in common with R_G. So |φ_G(R_G)| − |R_G| = #SAT(G), which internal/sat
// counts without the engine. φ_G is evaluated under wcoj and under auto.
// An answer its join strategy produces in order — the generic join's, the
// tree join's — must be born sorted, and a hash plan's must not be marked.
func FuzzLemma1Count(f *testing.F) {
	f.Add(int64(1), byte(5), byte(4))
	f.Add(int64(2), byte(3), byte(6))
	f.Add(int64(3), byte(8), byte(2))
	f.Add(int64(4), byte(4), byte(0))
	f.Fuzz(func(t *testing.T, seed int64, n, m byte) {
		rng := rand.New(rand.NewSource(seed))
		g, err := cnf.Random3CNF(rng, 3+int(n%6), 3+int(m%5))
		if err != nil {
			t.Fatal(err)
		}
		g, _ = cnf.Compact(g)
		c, err := reduction.New(g)
		if err != nil {
			t.Fatal(err)
		}
		phi, err := c.PhiG()
		if err != nil {
			t.Fatal(err)
		}
		models, err := sat.CountModels(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range []string{"wcoj", "auto"} {
			ev := algebra.Evaluator{Collector: &obs.Collector{}}
			if err := ev.SetStrategy(strategy); err != nil {
				t.Fatal(err)
			}
			got, err := ev.Eval(phi, c.Database())
			if err != nil {
				t.Fatal(err)
			}
			if extra := int64(got.Len() - c.R.Len()); extra != models {
				t.Fatalf("%s on %v: |φ_G(R_G)| − |R_G| = %d, #SAT(G) = %d", strategy, g, extra, models)
			}
			switch alg := outermostJoin(ev.Collector.Trace().Root()).Algorithm; alg {
			case "wcoj", "yannakakis":
				if !bornInOrder(got) {
					t.Fatalf("%s on %v: the %s answer is not born sorted", strategy, g, alg)
				}
			default:
				if got.BornSorted() {
					t.Fatalf("%s on %v: the %s answer is marked sorted", strategy, g, alg)
				}
			}
		}
	})
}
