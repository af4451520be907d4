package algebra

import (
	"context"
	"testing"

	"relquery/internal/join"
	"relquery/internal/relation"
)

// TestEvalToStoresWhatItBuilds: on first sight EvalTo keeps nothing of
// what the tree join wrote into the sink, but an answer it had to build —
// the tree join's greedy fallback on a cyclic node — is stored, as
// EvalContext would store it. Both reach the sink as the answer.
func TestEvalToStoresWhatItBuilds(t *testing.T) {
	tri := relation.New(relation.MustScheme("A", "B", "C"))
	for i := 0; i < 6; i++ {
		tri.MustAdd(relation.TupleOf(string(rune('a'+i%3)), string(rune('a'+i%2)), string(rune('a'+i))))
	}
	chain, chainDB := chainWorkload(t)
	for _, tc := range []struct {
		name   string
		src    string
		db     relation.Database
		stored int
	}{
		{"acyclic chain, streamed", "", chainDB, 0},
		{"cyclic triangle, built", "pi[A B](T) * pi[B C](T) * pi[A C](T)", relation.Single("T", tri), 1},
	} {
		e := chain
		if tc.src != "" {
			var err error
			if e, err = Parse(tc.src, map[string]relation.Scheme{"T": tri.Scheme()}); err != nil {
				t.Fatal(err)
			}
		}
		shared := NewSubexprCache()
		ev := Evaluator{Algorithm: join.Yannakakis{}, SharedCache: shared}
		var got relation.Builder
		if err := ev.EvalTo(context.Background(), e, tc.db, &got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, _, _, entries := shared.Counters(); entries != tc.stored {
			t.Errorf("%s: %d answers stored on first sight, want %d", tc.name, entries, tc.stored)
		}
		want, err := Eval(e, tc.db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Relation().Equal(want) {
			t.Errorf("%s: EvalTo wrote %v, Eval answers %v", tc.name, got.Relation(), want)
		}
	}
}
