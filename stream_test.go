package relquery_test

import (
	"bufio"
	"bytes"
	"context"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// TestStreamedFamiliesAreByteEqual: on the path, star and snowflake
// families, EvalTo into the codec's block writer writes exactly the bytes
// WriteRelation writes of the answer EvalContext builds — when the tree
// join streams it (the first sight, which stores nothing), when the second
// request builds and stores it, and when the third is served it — also when
// every tuple hash collides.
func TestStreamedFamiliesAreByteEqual(t *testing.T) {
	for _, collide := range []bool{false, true} {
		if collide {
			relation.CollideAllHashes(t)
		}
		// Built after the switch: the edge tables memoized on a relation
		// hash as it did when they were built.
		for name, fam := range acyclicFamilies(t) {
			var ev algebra.Evaluator
			if err := ev.SetStrategy("auto"); err != nil {
				t.Fatal(err)
			}
			built, err := ev.EvalContext(context.Background(), fam.expr, fam.db)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := relation.WriteRelation(&want, "result", built); err != nil {
				t.Fatal(err)
			}
			ev.SharedCache = algebra.NewSubexprCache()
			for i, stored := range []int{0, 1, 1} {
				var got bytes.Buffer
				block := relation.BlockWriter{W: bufio.NewWriter(&got), Name: "result"}
				if err := ev.EvalTo(context.Background(), fam.expr, fam.db, &block); err != nil {
					t.Fatal(err)
				}
				if err := block.End(); err != nil || block.W.Flush() != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s (collide %v), request %d: EvalTo wrote\n%s\nWriteRelation of the built answer\n%s", name, collide, i+1, got.Bytes(), want.Bytes())
				}
				if hits, _, _, entries := ev.SharedCache.Counters(); entries != stored || hits != i/2 {
					t.Errorf("%s (collide %v), after request %d: %d stored, %d hits; want %d and %d", name, collide, i+1, entries, hits, stored, i/2)
				}
			}
		}
	}
}
