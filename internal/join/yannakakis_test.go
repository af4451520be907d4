package join

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

func TestYannakakisChainWithDanglingTuples(t *testing.T) {
	// A chain with dangling tuples on both ends: the full reducer must
	// delete them before any join materializes a combination.
	r1 := rel(t, "A B", "1 x", "9 dead")
	r2 := rel(t, "B C", "x p", "dead2 q")
	r3 := rel(t, "C D", "p 7", "q 8")
	m, sp := &obs.Metrics{}, &obs.Span{}
	out, err := Yannakakis{}.JoinAll(Exec{Metrics: m, Span: sp}, NewPlan(r1, r2, r3))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(rel(t, "A B C D", "1 x p 7")) {
		t.Errorf("join = %v", out.Sorted())
	}
	if sp.Structure != obs.StructureAcyclic {
		t.Errorf("chain recorded structure=%q", sp.Structure)
	}
	if sp.Semijoins != 4 { // 2·(edges−1)
		t.Errorf("semijoins = %d, want 4", sp.Semijoins)
	}
	if sp.ReducedRows != 3 {
		t.Errorf("reduced rows = %d, want 3 of 6", sp.ReducedRows)
	}
	if sp.MaxIntermediate != 1 { // no semijoin result or tree join outgrows the 1-row output
		t.Errorf("span peak = %d, want 1", sp.MaxIntermediate)
	}
	snap := m.Snapshot()
	if snap.YannakakisJoins != 1 || snap.Semijoins != 4 {
		t.Errorf("metrics: yannakakis=%d semijoins=%d", snap.YannakakisJoins, snap.Semijoins)
	}
	// Inputs untouched.
	if r1.Len() != 2 || r2.Len() != 2 || r3.Len() != 2 {
		t.Error("JoinAll mutated its inputs")
	}
}

func TestYannakakisCyclicFallback(t *testing.T) {
	r1 := rel(t, "A B", "1 2", "2 3")
	r2 := rel(t, "B C", "2 3", "3 1")
	r3 := rel(t, "A C", "1 3", "2 1")
	want, err := Multi(Exec{}, NewPlan(r1, r2, r3), Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	m, sp := &obs.Metrics{}, &obs.Span{}
	out, err := Yannakakis{}.JoinAll(Exec{Metrics: m, Span: sp}, NewPlan(r1, r2, r3))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Structure != obs.StructureCyclic {
		t.Errorf("triangle recorded structure=%q", sp.Structure)
	}
	// The fallback is the greedy hash plan: two joins, no semijoin, no
	// tree join, and no full-reducer annotation on the span.
	if snap := m.Snapshot(); snap.Joins != 2 || snap.Semijoins != 0 || snap.YannakakisJoins != 0 {
		t.Errorf("fallback metrics: joins=%d semijoins=%d yannakakis=%d, want 2/0/0", snap.Joins, snap.Semijoins, snap.YannakakisJoins)
	}
	if sp.Semijoins != 0 || sp.ReducedRows != 0 {
		t.Errorf("fallback annotated the span: semijoins=%d reduced=%d", sp.Semijoins, sp.ReducedRows)
	}
	if !out.Equal(want) {
		t.Errorf("cyclic fallback = %v, want %v", out.Sorted(), want.Sorted())
	}
}

func TestYannakakisBinaryAndSingle(t *testing.T) {
	r1 := rel(t, "A B", "1 x", "2 y")
	r2 := rel(t, "B C", "x p")
	out, err := Yannakakis{}.JoinAll(Exec{}, NewPlan(r1, r2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(rel(t, "A B C", "1 x p")) {
		t.Errorf("binary join = %v", out.Sorted())
	}
	single, err := Yannakakis{}.JoinAll(Exec{}, NewPlan(r1))
	if err != nil || single != r1 {
		t.Errorf("single input: %v, %v", single, err)
	}
	if _, err := (Yannakakis{}).JoinAll(Exec{}, NewPlan()); err == nil {
		t.Error("zero inputs accepted")
	}
}

func TestYannakakisDisconnectedComponents(t *testing.T) {
	// Two components: a cartesian product of a reduced chain and a lone
	// relation. GYO links components through empty-intersection
	// containment, and the tree joins produce the cross product.
	r1 := rel(t, "A B", "1 x", "2 dead")
	r2 := rel(t, "B C", "x p")
	r3 := rel(t, "D", "d1", "d2")
	want, err := Multi(Exec{}, NewPlan(r1, r2, r3), Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	sp := &obs.Span{}
	out, err := Yannakakis{}.JoinAll(Exec{Span: sp}, NewPlan(r1, r2, r3))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Structure != obs.StructureAcyclic {
		t.Errorf("disconnected acyclic components recorded structure=%q", sp.Structure)
	}
	if !out.Equal(want) {
		t.Errorf("disconnected join = %v, want %v", out.Sorted(), want.Sorted())
	}
	if out.Len() != 2 { // (1 x p) × {d1, d2}
		t.Errorf("cross product has %d tuples, want 2", out.Len())
	}
}

func TestYannakakisEmptyRelationEmptiesJoin(t *testing.T) {
	r1 := rel(t, "A B", "1 x")
	r2 := rel(t, "B C") // empty
	r3 := rel(t, "C D", "p 7")
	sp := &obs.Span{}
	out, err := Yannakakis{}.JoinAll(Exec{Span: sp}, NewPlan(r1, r2, r3))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("join with empty input = %v", out.Sorted())
	}
	if sp.ReducedRows != 0 {
		t.Errorf("reduced rows = %d, want 0", sp.ReducedRows)
	}
}

// TestYannakakisBudgetAborts: the row budget reaches the full reducer's
// own materializations — the first semijoin result already has two rows.
func TestYannakakisBudgetAborts(t *testing.T) {
	r1 := rel(t, "A B", "1 x", "2 y")
	r2 := rel(t, "B C", "x p", "y q")
	r3 := rel(t, "C D", "p 7", "q 8")
	m := &obs.Metrics{}
	gov := governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 1})
	_, err := Yannakakis{}.JoinAll(Exec{Gov: gov, Metrics: m}, NewPlan(r1, r2, r3))
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Errorf("budget violation not propagated: %v", err)
	}
	if snap := m.Snapshot(); snap.Semijoins != 1 || snap.Joins != 0 {
		t.Errorf("aborted after semijoins=%d joins=%d, want 1/0", snap.Semijoins, snap.Joins)
	}
}

func TestFullReduceRejectsCyclic(t *testing.T) {
	r1 := rel(t, "A B", "1 1")
	r2 := rel(t, "B C", "1 1")
	r3 := rel(t, "A C", "1 1")
	if _, _, err := FullReduce([]*relation.Relation{r1, r2, r3}); err == nil {
		t.Error("cyclic full reduction accepted")
	}
	out, n, err := FullReduce(nil)
	if err != nil || len(out) != 0 || n != 0 {
		t.Errorf("FullReduce(nil) = %v, %d, %v", out, n, err)
	}
}

// uniquePath returns the path R1(A,B) ∗ R2(B,C) ∗ R3(C,D) of rows rows
// each with unique keys: nothing dangles, and the join has rows rows.
func uniquePath(rows int) []*relation.Relation {
	r1, r2 := skewedPair(rows, rows)
	r3 := relation.New(relation.MustScheme("C", "D"))
	for i := 0; i < rows; i++ {
		r3.MustAdd(relation.TupleOf(fmt.Sprintf("c%d", i), fmt.Sprintf("d%d", i)))
	}
	return []*relation.Relation{r1, r2, r3}
}

// clones returns n independent copies of rels: relations equal to rels
// with no access path memoized on them, like a fresh upload.
func clones(rels []*relation.Relation, n int) [][]*relation.Relation {
	out := make([][]*relation.Relation, n)
	for k := range out {
		for _, r := range rels {
			out[k] = append(out[k], r.Clone())
		}
	}
	return out
}

// TestWarmTreeJoinHashesNoRow: the edge tables are facts of the inputs
// and the shape a fact of the node, so a second JoinAll over the same
// relations allocates a constant and the output's own arrays — no table,
// and nothing that grows with the inputs between 1 024 and 4 096 rows —
// where a cold one over fresh copies also builds a table per edge.
func TestWarmTreeJoinHashesNoRow(t *testing.T) {
	besides := map[int]float64{}
	for _, rows := range []int{1024, 4096} {
		rels := uniquePath(rows)
		table := testing.AllocsPerRun(5, func() {
			if err := new(hashTable).build(nil, rels[1], keyCols{0}); err != nil {
				t.Fatal(err)
			}
		})
		fresh, k := clones(rels, 6), 0
		cold := testing.AllocsPerRun(5, func() {
			if out, err := (Yannakakis{}).JoinAll(Exec{}, NewPlan(fresh[k]...)); err != nil || out.Len() != rows {
				t.Fatal(out, err)
			}
			k++
		})
		p := NewPlan(rels...)
		var out *relation.Relation
		warm := testing.AllocsPerRun(5, func() {
			var err error
			if out, err = (Yannakakis{}).JoinAll(Exec{}, p); err != nil || out.Len() != rows {
				t.Fatal(out, err)
			}
		})
		output := testing.AllocsPerRun(5, func() { out.Clone() })
		besides[rows] = warm - output
		t.Logf("%d rows: cold %v allocations, warm %v, %v per table, %v for a copy of the output", rows, cold, warm, table, output)
		if cold-warm < 2*table {
			t.Errorf("%d rows: cold %v against warm %v allocations: the warm join built a table (%v each)", rows, cold, warm, table)
		}
		if besides[rows] > 10 { // 0 measured: the state, the root's links, the search's tries and ranges are the scratch's (7 before)
			t.Errorf("%d rows: warm join allocates %v besides its output", rows, besides[rows])
		}
	}
	if grew := besides[4096] - besides[1024]; grew != 0 {
		t.Errorf("warm allocations besides the output grew by %v from 1024 to 4096 rows", grew)
	}
}

// TestTreeJoinStateFollowsTheOutput: what a warm evaluation keeps of its
// inputs is a bit per row and per leaf group, plus the groups of the rows
// that reach the output. On the chain R1 ∗ R2 ∗ R3 whose one output row
// is the only path through n rows a relation, the mark and count passes
// allocate at most a byte more per input row added from 1 024 to 4 096
// rows a relation — where a group id per parent row per edge and a
// number per child group cost 8 bytes or more. Every working array is a
// make of its own (FreshScratch): a scratch reused from one evaluation to
// the next allocates nothing, whatever it carves.
func TestTreeJoinStateFollowsTheOutput(t *testing.T) {
	FreshScratch(t)
	const runs = 8
	spent, inputs := map[int]float64{}, map[int]int{}
	for _, n := range []int{1024, 4096} {
		r1, r2, r3 := relation.New(relation.MustScheme("A", "B")), relation.New(relation.MustScheme("B", "C")), relation.New(relation.MustScheme("C", "D"))
		for i := 0; i < n; i++ {
			r1.MustAdd(relation.TupleOf(fmt.Sprint("a", i), fmt.Sprint("b", i)))
			r2.MustAdd(relation.TupleOf(fmt.Sprint("b", i), fmt.Sprint("c", i)))
			r3.MustAdd(relation.TupleOf(fmt.Sprint("x", i), fmt.Sprint("d", i)))
		}
		r3.MustAdd(relation.TupleOf("c0", "d*"))
		rels := []*relation.Relation{r1, r2, r3}
		p := NewPlan(rels...)
		if out, err := (Yannakakis{}).JoinAll(Exec{}, p); err != nil || out.Len() != 1 {
			t.Fatal(out, err) // and the edge tables are built
		}
		tree, _ := p.JoinTree()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			sc := takeScratch()
			tj, err := newTreeJoin(sc, Exec{}, rels, tree, p.treeShape())
			if err != nil {
				t.Fatal(err)
			}
			if err := tj.mark(); err != nil {
				t.Fatal(err)
			}
			if total, err := tj.count(); err != nil || total != 1 {
				t.Fatalf("counted %d rows (%v); want 1", total, err)
			}
			sc.release()
		}
		runtime.ReadMemStats(&after)
		spent[n], inputs[n] = float64(after.TotalAlloc-before.TotalAlloc)/runs, r1.Len()+r2.Len()+r3.Len()
		t.Logf("%d input rows: mark and count allocate %.0f bytes", inputs[n], spent[n])
	}
	if grew := (spent[4096] - spent[1024]) / float64(inputs[4096]-inputs[1024]); grew > 1 {
		t.Errorf("mark and count allocate %.2f bytes more per input row added; want at most 1", grew)
	}
}

// TestEdgeTableIsSizedOnce: a table over n rows sizes its index and group
// arrays once, from the groups its first relation.SizeSample rows make,
// and keeps what its groups need. With 1 025 distinct keys the build
// allocates its row chain, three group arrays and one index reserved for
// 1 025 groups — an eighth over, for the allocator's size classes — and
// the little the sample grew, where growing row by row allocated slots
// six times; with 2 keys the forecast of 32 groups is given back, and the
// table holds what it held when it grew row by row: the chain, two
// groups' arrays of two and an index of 8 slots and 2 hashes.
func TestEdgeTableIsSizedOnce(t *testing.T) {
	const n = 1025
	for _, keys := range []int{n, 2} {
		r := relation.New(relation.MustScheme("A", "B"))
		for i := 0; i < n; i++ {
			r.MustAdd(relation.TupleOf(fmt.Sprint("k", i%keys), fmt.Sprint("v", i)))
		}
		var exact relation.Index
		exact.Reserve(keys)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tb := new(hashTable)
		if err := tb.build(nil, r, keyCols{0}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if tb.keys() != keys {
			t.Fatalf("%d keys: the table has %d groups", keys, tb.keys())
		}
		if got := tb.ix.Bytes(); got != exact.Bytes() {
			t.Errorf("%d keys: the index holds %d bytes, one reserved for its groups %d", keys, got, exact.Bytes())
		}
		spent := int64(after.TotalAlloc - before.TotalAlloc)
		switch keys {
		case n:
			if budget := (4*n+3*4*n+exact.Bytes())*9/8 + 4<<10; spent > budget {
				t.Errorf("%d distinct keys: the build allocated %d bytes, budget %d", n, spent, budget)
			}
		case 2:
			if want := int64(4*n + 4*2 + 4*2 + 4*8 + 8*2); tb.Bytes() != want {
				t.Errorf("2 keys: the table holds %d bytes, %d grown row by row", tb.Bytes(), want)
			}
		}
		for i := 0; i < n; i++ { // every row is found in its group
			row := r.Tuple(i)
			grp := tb.group(row.HashOf(keyCols{0}), row, keyCols{0})
			found := false
			for j := int(tb.head[grp]); j >= 0 && !found; j = tb.after(j) {
				found = j == i
			}
			if !found {
				t.Fatalf("%d keys: row %d is not in its group", keys, i)
			}
		}
	}
}

// builds reports whether looking rel's edge table on cols up builds one,
// leaving nothing behind: the lookup runs under a governor that has
// already failed, so the build's first row aborts it unpublished.
func builds(t *testing.T, rel *relation.Relation, cols keyCols) bool {
	t.Helper()
	_, err := edgeTable(failed(t), rel, cols)
	return err != nil
}

// sorts is builds for rel's trie on cols.
func sorts(t *testing.T, rel *relation.Relation, cols []int) bool {
	t.Helper()
	_, err := trieOf(rel, cols, failed(t))
	return err != nil
}

// failed returns a governor that has already failed its check.
func failed(t *testing.T) *governor.Governor {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := governor.New(ctx, governor.Limits{})
	if err := g.Check(); err == nil {
		t.Fatal("a canceled governor passed its check")
	}
	return g
}

// ballast is a path of n bytes and nothing else.
type ballast int64

func (b ballast) Bytes() int64 { return int64(b) }

// TestEdgeTableIsAFactOfItsRelation: a relation joined as a child under
// three key sets holds all three tables, and once more paths would take
// what it holds past its weight bound, a new one replaces them all. (The
// memo's own rules — the bound, Add, a copy, a failed build — are
// relation.TestPathMemo's.)
func TestEdgeTableIsAFactOfItsRelation(t *testing.T) {
	r := rel(t, "A B", "1 x", "2 x", "3 y")
	// As a child under key A, under key B, then under both.
	for _, parent := range []*relation.Relation{rel(t, "A C", "1 p", "3 q"), rel(t, "B D", "x 7"), rel(t, "A B E", "1 x e")} {
		if _, err := (Yannakakis{}).JoinAll(Exec{}, NewPlan(r, parent)); err != nil {
			t.Fatal(err)
		}
	}
	if builds(t, r, keyCols{0}) || builds(t, r, keyCols{1}) || builds(t, r, keyCols{0, 1}) {
		t.Fatal("a relation joined as a child under three key sets holds fewer than three tables")
	}
	// Paths of half the relation's own weight each, until the tables go.
	fillers := 0
	for ; !builds(t, r, keyCols{0}); fillers++ {
		if fillers == 20 {
			t.Fatal("ten times the relation's weight in paths did not displace its tables")
		}
		relation.Path(r, []int{-1, fillers}, func() (ballast, error) { return ballast(r.Bytes() / 2), nil })
	}
	if fillers == 0 || !builds(t, r, keyCols{1}) || !builds(t, r, keyCols{0, 1}) {
		t.Errorf("after %d paths of half the relation's weight: the tables left no room, or some stayed", fillers)
	}
	if !builds(t, r.Clone(), keyCols{0, 1}) {
		t.Error("a copy of the relation — an upload — came with its table")
	}
}

// TestTreeJoinConcurrentFirstUse: eight goroutines join the same cold
// relations at once, through one Facts. Each builds the edge tables, and
// the trie of the input that loses no row, or finds them; one of each is
// published, every answer is the oracle's, and -race proves a published
// table or trie is never written. The inputs that lose rows are searched
// through tries of their live rows, and no trie of all their rows is
// built.
func TestTreeJoinConcurrentFirstUse(t *testing.T) {
	rels := danglingPath(512)
	want := rels[0]
	for _, r := range rels[1:] {
		var err error
		if want, err = want.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	facts := new(Facts)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := facts.Plan(rels...)
			out, err := (Yannakakis{}).JoinAll(Exec{}, &p)
			if err != nil || !out.Equal(want) {
				t.Errorf("concurrent join: %v, %v", out, err)
			}
		}()
	}
	wg.Wait()
	p := facts.Plan(rels...)
	tree, _ := p.JoinTree()
	for i, parent := range tree.Parent {
		if parent >= 0 && builds(t, rels[i], p.treeShape().childKey[i]) {
			t.Errorf("input %d: no edge table published", i)
		}
	}
	reduced, _, err := FullReduce(rels)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reduced {
		if kept := r == rels[i]; kept == sorts(t, rels[i], p.treeShape().cols[i]) {
			t.Errorf("input %d (lost no row: %v): a trie of all its rows published: %v", i, kept, !kept)
		}
	}
	if reduced[2] != rels[2] || reduced[0] == rels[0] {
		t.Fatal("the dangling path's last input lost rows or its first did not")
	}
}

// danglingPath and danglingStar are the acyclic blow-up families at scale
// n: n+1 output rows, and n dangling tuples on each of two relations that
// a binary plan joins into n² rows first.
func danglingPath(n int) []*relation.Relation {
	r1 := relation.New(relation.MustScheme("A", "B"))
	r2 := relation.New(relation.MustScheme("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	for i := 0; i < n; i++ {
		r1.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), "b0"))
		r2.MustAdd(relation.TupleOf("b0", fmt.Sprintf("c%d", i)))
		r3.MustAdd(relation.TupleOf("c*", fmt.Sprintf("d%d", i)))
	}
	r1.MustAdd(relation.TupleOf("a*", "b1"))
	r2.MustAdd(relation.TupleOf("b1", "c*"))
	r3.MustAdd(relation.TupleOf("c*", fmt.Sprintf("d%d", n)))
	return []*relation.Relation{r1, r2, r3}
}

func danglingStar(n int) []*relation.Relation {
	l1 := relation.New(relation.MustScheme("A", "B"))
	l2 := relation.New(relation.MustScheme("A", "C"))
	l3 := relation.New(relation.MustScheme("A", "D"))
	for i := 0; i < n; i++ {
		l1.MustAdd(relation.TupleOf("h0", fmt.Sprintf("b%d", i)))
		l2.MustAdd(relation.TupleOf("h0", fmt.Sprintf("c%d", i)))
		l3.MustAdd(relation.TupleOf("h1", fmt.Sprintf("d%d", i)))
	}
	l1.MustAdd(relation.TupleOf("h1", "b*"))
	l2.MustAdd(relation.TupleOf("h1", "c*"))
	l3.MustAdd(relation.TupleOf("h1", fmt.Sprintf("d%d", n)))
	return []*relation.Relation{l1, l2, l3}
}

// checkCounter is a context that counts the governor's full checkpoints:
// one per governor.CheckEvery ticks, plus the explicit ones.
type checkCounter struct {
	context.Context
	checks *atomic.Int64
}

func (c checkCounter) Err() error {
	c.checks.Add(1)
	return c.Context.Err()
}

// TestTreeJoinWorkIsLinear: on the dangling families the whole evaluation
// — both sweeps, the count, the live rows' tries and the search — ticks a
// constant number of times per input and output row. A marked tree has no
// dead ends, so the search visits nothing it does not emit, and no pass
// rescans what an earlier one deleted.
func TestTreeJoinWorkIsLinear(t *testing.T) {
	const n = 8192
	for name, rels := range map[string][]*relation.Relation{"path": danglingPath(n), "star": danglingStar(n)} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var checks atomic.Int64
		gov := governor.New(checkCounter{ctx, &checks}, governor.Limits{})
		out, err := Yannakakis{}.JoinAll(Exec{Gov: gov}, NewPlan(rels...))
		if err != nil || out.Len() != n+1 {
			t.Fatal(name, out, err)
		}
		work := 3*(n+1) + out.Len() // input + output
		ticks := int(checks.Load()) * governor.CheckEvery
		t.Logf("%s: at most %d ticks for %d rows in and out", name, ticks, work)
		if ticks > 4*work {
			t.Errorf("%s: %d ticks for %d rows in and out", name, ticks, work)
		}
	}
}

// deadUnderLive is the path P(A,B) → C(B,X) → D(X) at scale n, with
// Q(A) under P to keep A from being an ear, so that GYO roots the tree
// at P. D keeps one row of C alive, so C loses n rows in its own child's
// up-sweep — before its edge to P exists — and every one of P's n rows
// points at the one group of C that holds the live row among n dead ones.
// The output has n rows.
func deadUnderLive(n int) []*relation.Relation {
	d := relation.New(relation.MustScheme("X"))
	c := relation.New(relation.MustScheme("B", "X"))
	p := relation.New(relation.MustScheme("A", "B"))
	q := relation.New(relation.MustScheme("A"))
	d.MustAdd(relation.TupleOf("x0"))
	for i := 0; i <= n; i++ {
		c.MustAdd(relation.TupleOf("b0", fmt.Sprintf("x%d", i)))
	}
	for i := 0; i < n; i++ {
		p.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), "b0"))
		q.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i)))
	}
	return []*relation.Relation{d, c, p, q}
}

// TestTreeJoinSkipsRowsDeadBeforeTheirEdge: the edge table of C is built
// over all of C's rows, the n dead ones included, and every row of P
// points at the group that holds them. It stays linear in input plus
// output — cold and warm — because the passes after C's loss walk the
// request's chain of live rows, not the table's, and the search reads a
// trie of C's live rows alone, never one of all its rows.
func TestTreeJoinSkipsRowsDeadBeforeTheirEdge(t *testing.T) {
	for _, n := range []int{1024, 8192} {
		rels := deadUnderLive(n)
		p := NewPlan(rels...)
		if tree, _ := p.JoinTree(); !reflect.DeepEqual(tree.Parent, []int{1, 2, -1, 2}) {
			t.Fatalf("join tree %+v, want D under C under P", tree)
		}
		for _, temperature := range []string{"cold", "warm"} {
			ctx, cancel := context.WithCancel(context.Background()) // cancelable: New returns no governor for Background
			defer cancel()
			var checks atomic.Int64
			gov := governor.New(checkCounter{ctx, &checks}, governor.Limits{})
			out, err := Yannakakis{}.JoinAll(Exec{Gov: gov}, p)
			if err != nil || out.Len() != n {
				t.Fatal(temperature, out, err)
			}
			work := 1 + (n + 1) + 2*n + out.Len() // input + output
			ticks := int(checks.Load()) * governor.CheckEvery
			t.Logf("n = %d, %s: at most %d ticks for %d rows in and out", n, temperature, ticks, work)
			if ticks > 4*work {
				t.Errorf("n = %d, %s: %d ticks for %d rows in and out", n, temperature, ticks, work)
			}
		}
	}
}

// TestOverBudgetTreeJoinDiesBeforeItMaterializes is the acyclic twin of
// TestOverBudgetJoinDiesBeforeItMaterializes: a star of two 2 000-row legs
// on one hub value has four million output rows, and under a 10 000-row
// budget it is refused on the count, holding its two tables and its marks
// and not one output row. The memory budget is charged on the same count,
// and a budget of exactly the output lets a join through.
func TestOverBudgetTreeJoinDiesBeforeItMaterializes(t *testing.T) {
	star := func(n int) *Plan {
		l, r := skewedPair(n, 1) // L(A,B), R(B,C): every row on the key b0
		return NewPlan(rel(t, "B", "b0"), l, r)
	}
	p := star(2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gov := governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 10_000})
	_, err := Yannakakis{}.JoinAll(Exec{Gov: gov}, p)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Fatalf("want governor.ErrRowBudget, got %v", err)
	}
	const perRow = 3*16 + 24 // one output row of three values and its header
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 4_000_000*perRow/1000 {
		t.Errorf("the refused join allocated %d bytes; its output would be %d", spent, 4_000_000*perRow)
	}
	gov = governor.New(context.Background(), governor.Limits{MaxMemoryBytes: 1 << 20})
	if _, err := (Yannakakis{}).JoinAll(Exec{Gov: gov}, p); !errors.Is(err, governor.ErrMemBudget) {
		t.Errorf("want governor.ErrMemBudget under a 1 MB budget, got %v", err)
	}
	gov = governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 40_000})
	if out, err := (Yannakakis{}).JoinAll(Exec{Gov: gov}, star(200)); err != nil || out.Len() != 40_000 {
		t.Errorf("200 × 200 under a budget of exactly its output: %v, %v", out, err)
	}
}

// TestTreeJoinChargesItsOutputOnce: the tree join charges the memory
// budget for each semijoin pass's survivors and for its output, the output
// on its count: the search that then writes the rows, counted already,
// charges nothing more. A budget of exactly that lets the 200 × 200 join
// through and one byte less refuses it.
func TestTreeJoinChargesItsOutputOnce(t *testing.T) {
	l, r := skewedPair(200, 1)
	charge := 2*200*relation.RowBytes(2) + 40_000*relation.RowBytes(3) // up, down, the output
	for budget, want := range map[int64]error{charge: nil, charge - 1: governor.ErrMemBudget} {
		gov := governor.New(context.Background(), governor.Limits{MaxMemoryBytes: budget})
		out, err := Yannakakis{}.JoinAll(Exec{Gov: gov}, NewPlan(l, r))
		if !errors.Is(err, want) || err == nil && out.Len() != 40_000 {
			t.Errorf("200 × 200 tree join under a memory budget of %d bytes: want %v, got %v", budget, want, err)
		}
	}
}

// TestTreeJoinCountSaturates: four 65 536-row relations on disjoint
// schemes have 2⁶⁴ output rows — a count that wraps to exactly 0, which a
// wrapping executor would answer with an empty relation. The count
// saturates instead and the join is refused: by the row budget when there
// is one, and as an error of its own when there is none.
func TestTreeJoinCountSaturates(t *testing.T) {
	var rels []*relation.Relation
	for _, a := range []relation.Attribute{"A", "B", "C", "D"} {
		r := relation.New(relation.MustScheme(a))
		for i := 0; i < 1<<16; i++ {
			r.MustAdd(relation.TupleOf(strconv.Itoa(i)))
		}
		rels = append(rels, r)
	}
	p := NewPlan(rels...)
	tree, ok := p.JoinTree()
	if !ok {
		t.Fatal("disjoint schemes are acyclic")
	}
	tj, err := newTreeJoin(new(scratch), Exec{}, rels, tree, p.treeShape())
	if err != nil {
		t.Fatal(err)
	}
	if err := tj.mark(); err != nil {
		t.Fatal(err)
	}
	if total, err := tj.count(); err != nil || total != math.MaxInt {
		t.Fatalf("count() = %d, %v; want it saturated at math.MaxInt", total, err)
	}
	if out, err := (Yannakakis{}).JoinAll(Exec{}, p); err == nil || governor.Violated(err) {
		t.Errorf("ungoverned: want an overflow error, got %v, %v", out, err)
	}
	gov := governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 1 << 20})
	if _, err := (Yannakakis{}).JoinAll(Exec{Gov: gov}, p); !errors.Is(err, governor.ErrRowBudget) {
		t.Errorf("under a row budget: want governor.ErrRowBudget, got %v", err)
	}
}
