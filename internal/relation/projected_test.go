package relation_test

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/join"
	"relquery/internal/relation"
)

// randomProjectedJoins draws a relation R of arity 0–5 and up to 30 rows
// over a domain of 2–5 values, and three joins ∗ π_{Y_i}(R) of 1–5 of its
// projections: each Y_i a random column list in random order, or ∅, or
// every column, or a repeat of an earlier one — the self-join shapes of
// the paper's φ_G. Three queries over one relation share its facts: a
// projection onto the same columns, a trie in another attribute order.
func randomProjectedJoins(rng *rand.Rand) (*relation.Relation, []algebra.Expr) {
	attrs := make([]relation.Attribute, rng.Intn(6))
	for i := range attrs {
		attrs[i] = relation.Attribute(fmt.Sprint("C", i))
	}
	r := relation.New(relation.MustScheme(attrs...))
	domain := 2 + rng.Intn(4)
	for n := rng.Intn(31); n > 0; n-- {
		t := make(relation.Tuple, len(attrs))
		for c := range t {
			t[c] = relation.Value(fmt.Sprint(rng.Intn(domain)))
		}
		r.MustAdd(t)
	}
	exprs := make([]algebra.Expr, 3)
	for i := range exprs {
		exprs[i] = randomLegs(rng, attrs)
	}
	return r, exprs
}

// randomLegs draws one join of projections of T over attrs.
func randomLegs(rng *rand.Rand, attrs []relation.Attribute) algebra.Expr {
	op := algebra.MustOperand("T", relation.MustScheme(attrs...))
	legs := make([]algebra.Expr, 1+rng.Intn(5))
	for i := range legs {
		var onto []relation.Attribute
		switch k := rng.Intn(8); {
		case k == 0 && i > 0:
			legs[i] = legs[rng.Intn(i)]
			continue
		case k == 1:
			onto = attrs
		case k == 2: // ∅
		default:
			for _, a := range attrs {
				if rng.Intn(2) == 0 {
					onto = append(onto, a)
				}
			}
			rng.Shuffle(len(onto), func(a, b int) { onto[a], onto[b] = onto[b], onto[a] })
		}
		legs[i] = algebra.MustProject(relation.MustScheme(onto...), op)
	}
	e, err := algebra.JoinAll(legs...)
	if err != nil {
		panic(err)
	}
	return e
}

// fold is e(r) by the reference operations: the fold of Relation.Join
// over each leg's Relation.Project.
func fold(t *testing.T, r *relation.Relation, e algebra.Expr) *relation.Relation {
	t.Helper()
	args := []algebra.Expr{e}
	if j, ok := e.(*algebra.Join); ok {
		args = j.Args()
	}
	var want *relation.Relation
	for _, leg := range args {
		p, err := r.Project(leg.Scheme())
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = p
		} else if want, err = want.Join(p); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// checkOrder holds an answer to its sorted mark: a BornSorted answer's
// insertion order is the order a real sort of its rows finds (a Clone
// carries no mark, so sorting it sorts), and any answer's Sorted() is
// strictly ascending.
func checkOrder(t *testing.T, what string, r *relation.Relation) {
	t.Helper()
	if r.BornSorted() {
		for i, want := range r.Clone().Sorted() {
			if got := r.Tuple(i); !got.Equal(want) {
				t.Fatalf("%s is marked sorted, but row %d of %d is %v, sorted %v", what, i, r.Len(), got, want)
			}
		}
	}
	rows := r.Sorted()
	for i := 1; i < len(rows); i++ {
		if !rows[i-1].Less(rows[i]) {
			t.Fatalf("%s: Sorted() has %v before %v", what, rows[i-1], rows[i])
		}
	}
}

// checkProjectedJoins evaluates the exprs over r with every strategy,
// with no cache and with a shared one: each cold — over a copy of r with
// no facts, so each query finds the facts the ones before it left — and
// then warm. Every answer must be the fold's, and in order: a non-empty
// generic join's answer is born sorted, a hash plan's is not and sorts.
func checkProjectedJoins(t *testing.T, r *relation.Relation, exprs []algebra.Expr) {
	t.Helper()
	want := make([]*relation.Relation, len(exprs))
	for i, e := range exprs {
		want[i] = fold(t, r, e)
	}
	for _, strategy := range join.StrategyNames() {
		for _, shared := range []bool{false, true} {
			var ev algebra.Evaluator
			if err := ev.SetStrategy(strategy); err != nil {
				t.Fatal(err)
			}
			if shared {
				ev.SharedCache = algebra.NewSubexprCache()
			}
			db := relation.Single("T", r.Clone())
			for _, temperature := range []string{"cold", "warm"} {
				if shared {
					ev.SharedCache.Reset() // evaluate again, not a result hit
				}
				for i, e := range exprs {
					got, err := ev.Eval(e, db)
					if err != nil {
						t.Fatalf("%s %s, shared cache %v, %v: %v", temperature, strategy, shared, e, err)
					}
					if !got.Equal(want[i]) {
						t.Fatalf("%s %s, shared cache %v: %v over %d rows of %v gives %v, the fold %v",
							temperature, strategy, shared, e, r.Len(), r.Scheme(), got.Sorted(), want[i].Sorted())
					}
					what := fmt.Sprintf("%s %s, shared cache %v: %v", temperature, strategy, shared, e)
					_, isJoin := e.(*algebra.Join)
					if born := got.BornSorted(); strategy == "hash" && born || strategy == "wcoj" && isJoin && got.Len() > 0 && !born {
						t.Fatalf("%s: the answer's sorted mark is %v", what, born)
					}
					checkOrder(t, what, got)
				}
			}
		}
	}
}

// FuzzProjectedJoin holds every strategy, cold and warm, with and without
// the shared cache, to the Project/Join fold on random joins of
// projections of one relation, also with every tuple hashing to 0.
func FuzzProjectedJoin(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, seed%4 == 3)
	}
	f.Fuzz(func(t *testing.T, seed int64, collide bool) {
		if collide {
			relation.CollideAllHashes(t)
		}
		r, exprs := randomProjectedJoins(rand.New(rand.NewSource(seed)))
		checkProjectedJoins(t, r, exprs)
	})
}

// TestProjectedJoinMatchesOracle is the fuzzer's generator over a fixed
// run of seeds, under ordinary hashing and total collision.
func TestProjectedJoinMatchesOracle(t *testing.T) {
	for _, collide := range []bool{false, true} {
		t.Run(fmt.Sprint("collide=", collide), func(t *testing.T) {
			if collide {
				relation.CollideAllHashes(t)
			}
			rng := rand.New(rand.NewSource(29))
			for i := 0; i < 150; i++ {
				r, exprs := randomProjectedJoins(rng)
				checkProjectedJoins(t, r, exprs)
			}
		})
	}
}
