package relation

import (
	"fmt"
	"sync"
	"testing"
)

// TestHashValueBoundaries: the same bytes split at a different value
// boundary are a different tuple, and must hash and fingerprint apart.
func TestHashValueBoundaries(t *testing.T) {
	pairs := [][2]Tuple{
		{TupleOf("ab", "c"), TupleOf("a", "bc")},
		{TupleOf("", "x"), TupleOf("x", "")},
		{TupleOf("a\x01", ""), TupleOf("a", "\x01")},
		{TupleOf("", ""), TupleOf("")},
	}
	for _, p := range pairs {
		if p[0].Hash() == p[1].Hash() {
			t.Errorf("%q and %q hash equal", p[0], p[1])
		}
	}
	s := MustScheme("A", "B")
	r1, r2 := New(s), New(s)
	r1.MustAdd(TupleOf("ab", "c"))
	r2.MustAdd(TupleOf("a", "bc"))
	if Fingerprint(r1) == Fingerprint(r2) {
		t.Errorf("{(ab,c)} and {(a,bc)} fingerprint equal: %s", Fingerprint(r1))
	}
}

// TestHashOfIsHashOfProjection pins the contract the relation's Project
// and the join tables rely on: hashing columns in place equals hashing
// the projection.
func TestHashOfIsHashOfProjection(t *testing.T) {
	tp := TupleOf("p", "", "qq", "r")
	for _, cols := range [][]int{{}, {0}, {2, 0}, {3, 1, 1}, {0, 1, 2, 3}} {
		proj := make(Tuple, len(cols))
		for i, c := range cols {
			proj[i] = tp[c]
		}
		if got, want := tp.HashOf(cols), proj.Hash(); got != want {
			t.Errorf("HashOf(%v) = %x, projection hashes to %x", cols, got, want)
		}
	}
}

// TestHashRefsIsHashOfCollectedRow: hashing a key read through refs into
// several source rows equals hashing the row Builder.Collect builds from
// the same refs — what a join over row ids relies on to group its rows
// the way a join over values would.
func TestHashRefsIsHashOfCollectedRow(t *testing.T) {
	srcs := []Tuple{TupleOf("p", ""), TupleOf(), TupleOf("qq", "r", "p")}
	for _, from := range [][]Ref{{}, {{0, 0}}, {{2, 0}, {0, 1}}, {{2, 2}, {0, 0}, {2, 1}}, {{0, 1}, {0, 1}}} {
		attrs := make([]Attribute, len(from))
		for i := range attrs {
			attrs[i] = Attribute(fmt.Sprint("A", i))
		}
		b := NewBuilder(MustScheme(attrs...), 1)
		b.Collect(srcs, from)
		row := b.Relation().Tuple(0)
		if got, want := HashRefs(srcs, from), row.Hash(); got != want {
			t.Errorf("HashRefs(%v) = %x, the collected row %v hashes to %x", from, got, row, want)
		}
	}
}

// TestIndexUnderTotalCollision drives Index and TupleSet with one hash
// for everything: ids stay dense and every entry stays reachable.
func TestIndexUnderTotalCollision(t *testing.T) {
	var ix Index
	const n = 100
	for i := 0; i < n; i++ {
		if id := ix.Insert(7); id != i {
			t.Fatalf("Insert #%d returned id %d", i, id)
		}
	}
	seen := 0
	for id, p := ix.Seek(7); id >= 0; id, p = ix.Next(7, p) {
		seen++
	}
	if seen != n || ix.Len() != n {
		t.Errorf("walked %d of %d colliding entries (Len %d)", seen, n, ix.Len())
	}
	if id, _ := ix.Seek(8); id != -1 {
		t.Errorf("Seek of an absent hash found id %d", id)
	}

	CollideAllHashes(t)
	var set TupleSet
	for i := 0; i < n; i++ {
		if pos, fresh := set.Add(TupleOf(fmt.Sprint(i % 10))); fresh != (i < 10) || pos != i%10 {
			t.Fatalf("Add #%d = (%d, %v)", i, pos, fresh)
		}
	}
	if set.Len() != 10 {
		t.Errorf("TupleSet holds %d tuples, want 10", set.Len())
	}
}

// TestIndexReset: a reset index finds nothing, hands out ids from 0
// again, and keeps its arrays — what lets a binary plan build a table per
// step in one set of them.
func TestIndexReset(t *testing.T) {
	var ix Index
	for i := 0; i < 100; i++ {
		ix.Insert(uint64(i))
	}
	held := ix.Bytes()
	ix.Reset()
	if ix.Len() != 0 || ix.Bytes() != held {
		t.Fatalf("after Reset: Len %d, %d bytes held, want 0 and %d", ix.Len(), ix.Bytes(), held)
	}
	if id, _ := ix.Seek(7); id != -1 {
		t.Fatalf("Seek after Reset found id %d", id)
	}
	if n := testing.AllocsPerRun(10, func() {
		ix.Reset()
		for i := 0; i < 100; i++ {
			if id := ix.Insert(uint64(i * 3)); id != i {
				t.Fatalf("Insert #%d after Reset returned id %d", i, id)
			}
		}
	}); n != 0 {
		t.Errorf("refilling a reset index allocates %v times, want 0", n)
	}
	if id, _ := ix.Seek(9); id != 3 {
		t.Errorf("Seek(9) = %d, want 3", id)
	}
}

func TestFingerprintMemo(t *testing.T) {
	s := MustScheme("A", "B")
	r := New(s)
	for i := 0; i < 50; i++ {
		r.MustAdd(TupleOf(fmt.Sprint(i), fmt.Sprint(i%7)))
	}
	before := Fingerprint(r)
	if r.MustAdd(TupleOf("3", "3")) { // already present: 3%7 == 3
		t.Fatal("duplicate Add reported new")
	}
	if got := Fingerprint(r); got != before {
		t.Errorf("a duplicate Add changed the fingerprint: %s -> %s", before, got)
	}
	r.MustAdd(TupleOf("new", "row"))
	after := Fingerprint(r)
	if after == before {
		t.Errorf("Add after Fingerprint left the memo stale: %s", after)
	}

	// The same rows fingerprint the same however the relation was built
	// and whenever it was first fingerprinted.
	fresh := New(s)
	r.Each(func(tp Tuple) bool { fresh.MustAdd(tp); return true })
	built := NewBuilder(s, r.Len())
	r.Each(func(tp Tuple) bool { return built.Row(tp) })
	for name, o := range map[string]*Relation{"New+Add": fresh, "Builder": built.Relation(), "Clone": r.Clone()} {
		if got := Fingerprint(o); got != after {
			t.Errorf("%s relation fingerprints %s, want %s", name, got, after)
		}
	}
}

// TestFingerprintConcurrent: Fingerprint is a read, so concurrent callers
// — on a relation whose index is also being built lazily — must be
// race-clean (run with -race) and agree.
func TestFingerprintConcurrent(t *testing.T) {
	s := MustScheme("A")
	rows := make([]Tuple, 500)
	for i := range rows {
		rows[i] = TupleOf(fmt.Sprint(i))
	}
	b := NewBuilder(s, len(rows))
	for _, row := range rows {
		b.Row(row)
	}
	r := b.Relation()
	got := make([]string, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if !r.Contains(rows[g]) {
				t.Errorf("row %d missing", g)
			}
			got[g] = Fingerprint(r)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Errorf("goroutine %d fingerprinted %s, goroutine 0 %s", g, got[g], got[0])
		}
	}
}

// TestAllocationCeilings pins what the key-free index buys: a probe
// allocates nothing, a fingerprint of an unchanged relation allocates
// nothing, and a new tuple costs its copy plus amortized slice growth.
func TestAllocationCeilings(t *testing.T) {
	s := MustScheme("A", "B")
	r := New(s)
	for i := 0; i < 1000; i++ {
		r.MustAdd(TupleOf(fmt.Sprint(i), "x"))
	}
	hit, miss := TupleOf("500", "x"), TupleOf("500", "y")
	if n := testing.AllocsPerRun(100, func() {
		if !r.Contains(hit) || r.Contains(miss) {
			t.Fatal("Contains is wrong")
		}
	}); n != 0 {
		t.Errorf("Contains allocates %v times per pair of probes, want 0", n)
	}
	Fingerprint(r)
	if n := testing.AllocsPerRun(100, func() { Fingerprint(r) }); n != 0 {
		t.Errorf("Fingerprint of an unchanged relation allocates %v times, want 0", n)
	}
	fresh := make([]Tuple, 0, 1001)
	for i := 0; i < cap(fresh); i++ {
		fresh = append(fresh, TupleOf("new", fmt.Sprint(i)))
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() { r.MustAdd(fresh[i]); i++ }); n > 2 {
		t.Errorf("Add of a new tuple allocates %v times, want at most 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.MustAdd(hit) }); n != 0 {
		t.Errorf("Add of a duplicate allocates %v times, want 0", n)
	}
}
