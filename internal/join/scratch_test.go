package join

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relquery/internal/relation"
)

// emptyFreeList takes every scratch off the free list.
func emptyFreeList() {
	for len(scratches) > 0 {
		takeScratch()
	}
}

// TestScratchPastItsCapIsNotKept: a skewed join whose intermediate is
// 40 000 rows of two ids — 320 KB — passes scratchCap, and its scratch
// is dropped, not kept; the next small join's scratch is kept, and every
// kept scratch holds at most scratchCap bytes.
func TestScratchPastItsCapIsNotKept(t *testing.T) {
	l, r := skewedPair(200, 1)
	s := relation.New(relation.MustScheme("C", "D"))
	for i := 0; i < 200; i++ {
		s.MustAdd(relation.TupleOf(fmt.Sprint("c", i), fmt.Sprint("d", i)))
	}
	emptyFreeList()
	if out, err := Multi(Exec{}, NewPlan(l, r, s), Hash{}, Sequential); err != nil || out.Len() != 40_000 {
		t.Fatal(out, err)
	}
	if n := len(scratches); n != 0 {
		t.Errorf("the scratch of a join whose ids passed the cap was kept: %d on the list", n)
	}
	sl, sr := skewedPair(16, 4)
	if out, err := (Hash{}).Join(Exec{}, sl, sr); err != nil || out.Len() != 64 {
		t.Fatal(out, err)
	}
	if n := len(scratches); n != 1 {
		t.Fatalf("after a small join the list holds %d scratches, want 1", n)
	}
	if sc := takeScratch(); sc.bytes() > scratchCap || sc.bytes() == 0 {
		t.Errorf("the kept scratch holds %d bytes; want some, and at most %d", sc.bytes(), scratchCap)
	}
}

// TestFreeListIsBounded: however many joins run at once, the free list
// keeps at most as many scratches as it has room for, each within
// scratchCap.
func TestFreeListIsBounded(t *testing.T) {
	l, r := skewedPair(256, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4*cap(scratches)+4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				if out, err := (Hash{}).Join(Exec{}, l, r); err != nil || out.Len() != 4096 {
					t.Error(out, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(scratches); n > cap(scratches) || n == 0 {
		t.Errorf("after the joins the list holds %d scratches; want 1 to %d", n, cap(scratches))
	}
	for len(scratches) > 0 {
		if sc := <-scratches; sc.bytes() > scratchCap {
			t.Errorf("a kept scratch holds %d bytes, past the cap of %d", sc.bytes(), scratchCap)
		}
	}
}

// TestReleasedScratchPinsNoRelation: once a join has released its
// scratch, the free list keeps nothing of its inputs: relations joined
// by every strategy, the tree join and the generic join's search among
// them, are collected. Each input's first array of values carries a
// finalizer, reached from the relation and from every row of it, and the
// relation is not: its memoized facts point back to it, and a finalizer
// on a block in a cycle need never run.
func TestReleasedScratchPinsNoRelation(t *testing.T) {
	emptyFreeList()
	var collected atomic.Int32
	inputs := joinedAndDropped(t, &collected)
	for i := 0; i < 100 && collected.Load() < inputs; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if len(scratches) == 0 {
		t.Fatal("no scratch was kept: the test shows nothing")
	}
	if n := collected.Load(); n != inputs {
		t.Errorf("%d of %d inputs are still reachable after their joins released their scratch", inputs-n, inputs)
	}
}

// joinedAndDropped joins a chain and a triangle under every strategy and
// returns how many inputs they had, each of which adds one to collected
// once its rows are.
func joinedAndDropped(t *testing.T, collected *atomic.Int32) int32 {
	chain := []*relation.Relation{
		rel(t, "A B", "1 x", "2 x", "3 y"),
		rel(t, "B C", "x p", "y q", "z r"),
		rel(t, "C D", "p 7", "q 8"),
	}
	tri := []*relation.Relation{
		rel(t, "A B", "1 x", "2 x", "2 y"),
		rel(t, "B C", "x p", "y p"),
		rel(t, "A C", "1 p", "2 p"),
	}
	var inputs int32
	for _, rels := range [][]*relation.Relation{chain, tri} {
		for _, alg := range allAlgorithms(t) {
			if _, err := Multi(Exec{}, NewPlan(rels...), alg, Greedy); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range rels {
			runtime.SetFinalizer(&r.Tuple(0)[0], func(*relation.Value) { collected.Add(1) })
			inputs++
		}
	}
	// The generic join counts a written answer in its scratch: that must
	// not keep the sink either.
	sink := new(discard)
	if _, err := Multi(Exec{Out: sink}, NewPlan(tri...), Generic{}, Greedy); err != nil {
		t.Fatal(err)
	}
	runtime.SetFinalizer(sink, func(*discard) { collected.Add(1) })
	return inputs + 1
}

// discard is a sink that wants every row and keeps none.
type discard struct{ rows int }

func (*discard) Begin(relation.Scheme, int) bool { return true }
func (d *discard) Row(relation.Tuple) bool       { d.rows++; return true }

// TestConcurrentJoinsOverDirtyScratch: eight goroutines run the three
// strategies at once over the same relations — an acyclic chain, which
// Yannakakis joins along its tree, and a cyclic node, which it joins on
// the binary plan — with every released slab filled with 0xFF bytes, and
// each answer equals the fold of relation.Relation.Join.
func TestConcurrentJoinsOverDirtyScratch(t *testing.T) {
	DirtyScratch(t)
	rng := rand.New(rand.NewSource(46))
	var nodes [][]*relation.Relation
	for _, specs := range [][]string{{"A B", "B C", "C D", "B E"}, {"A B", "B C", "A C"}, {"A B C", "C D", "D A"}} {
		var rels []*relation.Relation
		for _, sc := range schemes(t, specs...) {
			rels = append(rels, randomRelation(rng, sc, 40))
		}
		nodes = append(nodes, rels)
	}
	want := make([]*relation.Relation, len(nodes))
	for i, rels := range nodes {
		want[i] = oracleJoin(t, rels)
	}
	algs := allAlgorithms(t)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 60 {
				i, alg := (g+k)%len(nodes), algs[(g+2*k)%len(algs)]
				got, err := Multi(Exec{}, NewPlan(nodes[i]...), alg, Order(k%2))
				if err != nil || !got.Equal(want[i]) {
					t.Errorf("goroutine %d: %s over node %d: %v (%v), want %v", g, alg.Name(), i, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanStepsReuseOneTable: each step of a binary plan builds its table
// and probe heads in the arrays of the step before, so a chain of equal
// steps — 512 rows each, its table presized — allocates per step added
// its combined operand, its keys and its ids and no table: 7.75 measured
// with every working array a make of its own (FreshScratch), where a
// table made per step costs at least one array more.
func TestPlanStepsReuseOneTable(t *testing.T) {
	FreshScratch(t)
	allocs := func(k int) float64 {
		rels := make([]*relation.Relation, k)
		for i := range rels {
			rels[i] = relation.New(relation.MustScheme(relation.Attribute(fmt.Sprint("A", i)), relation.Attribute(fmt.Sprint("A", i+1))))
			for v := 0; v < 512; v++ {
				rels[i].MustAdd(relation.TupleOf(fmt.Sprint(v), fmt.Sprint(v)))
			}
		}
		return testing.AllocsPerRun(5, func() {
			if out, err := Multi(Exec{}, NewPlan(rels...), Hash{}, Sequential); err != nil || out.Len() != 512 {
				t.Fatal(out, err)
			}
		})
	}
	if perStep := (allocs(8) - allocs(4)) / 4; perStep > 8 {
		t.Errorf("a plan step allocates %.2f times; want at most 8, no table of its own", perStep)
	}
}
