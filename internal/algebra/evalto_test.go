package algebra

import (
	"context"
	"fmt"
	"testing"

	"relquery/internal/join"
	"relquery/internal/relation"
)

// TestEvalToStoresWhatItBuilds: on first sight EvalTo keeps nothing of
// what a join wrote into the sink — the tree join, its greedy fallback on
// a cyclic node, the generic join, the binary plan — but an answer it had
// to build — a projected node — is stored, as EvalContext would store it.
// All reach the sink as the answer.
func TestEvalToStoresWhatItBuilds(t *testing.T) {
	tri := relation.New(relation.MustScheme("A", "B", "C"))
	for i := 0; i < 6; i++ {
		tri.MustAdd(relation.TupleOf(string(rune('a'+i%3)), string(rune('a'+i%2)), string(rune('a'+i))))
	}
	chain, chainDB := chainWorkload(t)
	for _, tc := range []struct {
		name   string
		alg    join.Algorithm
		src    string
		db     relation.Database
		stored int
	}{
		{"acyclic chain, streamed", join.Yannakakis{}, "", chainDB, 0},
		{"cyclic triangle, fallback written", join.Yannakakis{}, "pi[A B](T) * pi[B C](T) * pi[A C](T)", relation.Single("T", tri), 0},
		{"cyclic triangle, searched", join.Generic{}, "pi[A B](T) * pi[B C](T) * pi[A C](T)", relation.Single("T", tri), 0},
		{"cyclic triangle, hash written", join.Hash{}, "pi[A B](T) * pi[B C](T) * pi[A C](T)", relation.Single("T", tri), 0},
		{"projected triangle, hash built", join.Hash{}, "pi[A C](pi[A B](T) * pi[B C](T) * pi[A C](T))", relation.Single("T", tri), 1},
	} {
		e := chain
		if tc.src != "" {
			var err error
			if e, err = Parse(tc.src, map[string]relation.Scheme{"T": tri.Scheme()}); err != nil {
				t.Fatal(err)
			}
		}
		shared := NewSubexprCache()
		ev := Evaluator{Algorithm: tc.alg, SharedCache: shared}
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

// TestStreamAskedRecordIsBounded: the record of what was asked since the
// last Reset holds at most factsMax keys; past that it is dropped
// wholesale, like the facts, and a key asked before is new again.
func TestStreamAskedRecordIsBounded(t *testing.T) {
	c := NewSubexprCache()
	if c.ask("first") || !c.ask("first") {
		t.Fatal("a key is not recorded as asked on its first ask")
	}
	for i := 1; i < factsMax; i++ {
		c.ask(fmt.Sprint(i))
	}
	if !c.ask("first") {
		t.Fatalf("%d keys dropped the record", factsMax)
	}
	c.ask("one more")
	if c.ask("first") {
		t.Errorf("%d keys did not drop the record", factsMax+1)
	}
	if c.Reset(); c.ask("one more") {
		t.Error("Reset kept the record")
	}
}
