package relquery_test

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"runtime"
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
// is marked sorted and is in order; streaming it allocates no
// permutation — at least 4 bytes a row less than streaming an unmarked
// copy of it, which sorts — and writes the copy's bytes. A hash-join
// answer carries no mark and sorts when it is streamed.
func TestAnswersAreBornSorted(t *testing.T) {
	bw := bufio.NewWriter(io.Discard) // adopted by the codec: no buffer of its own
	// spent is the bytes streaming each of rs allocates, on average over
	// them: one stream alone is within the noise of the runtime's own.
	spent := func(rs ...*relation.Relation) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range rs {
			if err := relation.StreamRelation(bw, "result", r, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(len(rs))
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
		permutation := uint64(4 * got.Len())
		if !born {
			if got.BornSorted() {
				t.Fatalf("%s: the answer is marked sorted", strategy)
			}
			if cost := spent(got); cost < permutation {
				t.Errorf("%s: streaming the answer allocated %d bytes, less than its permutation's %d", strategy, cost, permutation)
			}
			return
		}
		if !bornInOrder(got) {
			t.Fatalf("%s: the answer is not born sorted", strategy)
		}
		same, copies := make([]*relation.Relation, streams), make([]*relation.Relation, streams)
		for i := range copies {
			same[i], copies[i] = got, got.Clone()
		}
		if own, sorting := spent(same...), spent(copies...); own+permutation > sorting {
			t.Errorf("%s: streaming the answer allocated %d bytes, an unmarked copy %d: a permutation (%d) was built", strategy, own, sorting, permutation)
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
