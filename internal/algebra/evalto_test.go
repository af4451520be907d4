package algebra

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
	if c.ask([]byte("first")) || !c.ask([]byte("first")) {
		t.Fatal("a key is not recorded as asked on its first ask")
	}
	for i := 1; i < factsMax; i++ {
		c.ask(fmt.Append(nil, i))
	}
	if !c.ask([]byte("first")) {
		t.Fatalf("%d keys dropped the record", factsMax)
	}
	c.ask([]byte("one more"))
	if c.ask([]byte("first")) {
		t.Errorf("%d keys did not drop the record", factsMax+1)
	}
	if c.Reset(); c.ask([]byte("one more")) {
		t.Error("Reset kept the record")
	}
}

// discard is a sink that wants every row and keeps none.
type discard struct{ rows int }

func (*discard) Begin(relation.Scheme, int) bool { return true }
func (d *discard) Row(relation.Tuple) bool       { d.rows++; return true }

// TestReleasedCallPinsNothing: an evaluation's working state — content
// keys, join arguments, the node's plan, the governor, the root's sink —
// goes back to the free list holding no pointer, so a kept call pins
// neither the relations it evaluated over nor the sink it wrote to.
func TestReleasedCallPinsNothing(t *testing.T) {
	for len(calls) > 0 {
		<-calls
	}
	var collected atomic.Int32
	const objects = 4 // three relations and the sink
	func() {
		e, db := chainWorkload(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ev := Evaluator{SharedCache: NewSubexprCache(), Algorithm: join.Hash{}}
		sink := new(discard)
		if err := ev.EvalTo(ctx, e, db, sink); err != nil || sink.rows == 0 {
			t.Fatalf("EvalTo: %v, %d rows", err, sink.rows)
		}
		for _, r := range db {
			runtime.SetFinalizer(&r.Tuple(0)[0], func(*relation.Value) { collected.Add(1) })
		}
		runtime.SetFinalizer(sink, func(*discard) { collected.Add(1) })
	}()
	for i := 0; i < 100 && collected.Load() < objects; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if len(calls) == 0 {
		t.Fatal("no call was kept: the test shows nothing")
	}
	if n := collected.Load(); n != objects {
		t.Errorf("%d of %d relations and sinks are still reachable after their evaluation released its call", objects-n, objects)
	}
}
