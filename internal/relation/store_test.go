package relation

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestDuplicateHandsItsRowBack: a duplicate — an Add of a present tuple,
// an upload line that repeats an earlier one — takes no row from the
// store, wherever it falls relative to a slab boundary: the store's next
// row is the memory the duplicate was offered, and every row already
// stored keeps its values.
func TestDuplicateHandsItsRowBack(t *testing.T) {
	s := MustScheme("A", "B", "C")
	line := func(i int) string { return fmt.Sprintf("a%d\tb%d  c%d", i, i, i) }
	for name, addDup := range map[string]func(r *Relation){
		"Add":         func(r *Relation) { r.MustAdd(TupleOf("a0", "b0", "c0")) },
		"upload line": func(r *Relation) { r.addLine(line(0)) },
	} {
		r := New(s)
		slabs := 0
		for i := 0; i < 600; i++ {
			if n := r.addLine(line(i)); n != s.Len() {
				t.Fatalf("%s: line %d split into %d fields", name, i, n)
			}
			if len(r.free) < s.Len() {
				slabs++ // row i filled its slab: the duplicate below meets the boundary
			}
			free := len(r.free)
			addDup(r)
			offered := r.next(s.Len())
			addDup(r)
			if again := r.next(s.Len()); &again[0] != &offered[0] {
				t.Fatalf("%s: after row %d a duplicate moved the store's next row", name, i)
			}
			if len(r.free) < free {
				t.Fatalf("%s: after row %d a duplicate consumed %d values", name, i, free-len(r.free))
			}
		}
		if slabs < 4 {
			t.Fatalf("%s: 600 rows opened %d slabs; the case never met a boundary", name, slabs)
		}
		if r.Len() != 600 {
			t.Fatalf("%s: %d rows, want 600", name, r.Len())
		}
		for i := 0; i < r.Len(); i++ {
			if want := TupleOf(fmt.Sprint("a", i), fmt.Sprint("b", i), fmt.Sprint("c", i)); !r.Tuple(i).Equal(want) {
				t.Fatalf("%s: row %d is %v, want %v", name, i, r.Tuple(i), want)
			}
		}
	}
}

// TestBackingArraysAreBounded pins the two sizes a shared row can pin: a
// slab never exceeds slabBytes (plus the allocator's rounding), a chunk of
// a reservation never chunkBytes.
func TestBackingArraysAreBounded(t *testing.T) {
	for _, width := range []int{1, 3, 40, 600} {
		var slabbed, reserved rowStore
		reserved.reserve(5000)
		row := make(Tuple, width)
		for i := 0; i < 5000; i++ {
			for name, s := range map[string]*rowStore{"slab": &slabbed, "chunk": &reserved} {
				fresh := len(s.free) < width
				s.copyRow(row)
				limit := map[string]int{"slab": slabBytes, "chunk": chunkBytes}[name]
				// One row is the least an array can hold; the allocator's size
				// classes round up by at most an eighth.
				if got := (len(s.free) + width) * valueBytes; fresh && got > max(limit, width*valueBytes)*9/8 {
					t.Fatalf("width %d: %s of %d bytes, limit %d", width, name, got, limit)
				}
			}
		}
		if reserved.slab != 0 {
			t.Errorf("width %d: a reservation of exactly its rows fell back to slabs", width)
		}
	}
}

// TestSortedOrderIsLexicographic: the permutation sort behind
// WriteRelation, StreamRelation and Render produces the order sort.Slice
// over Tuple.Less produced — the order every golden pins.
func TestSortedOrderIsLexicographic(t *testing.T) {
	r := New(MustScheme("A", "B"))
	for i := 0; i < 500; i++ {
		r.MustAdd(TupleOf(fmt.Sprint((i*7919)%101), fmt.Sprint("v", (i*31)%17, "\x00", i%3)))
	}
	want := r.Tuples()
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	var wantText strings.Builder
	fmt.Fprintf(&wantText, "relation R\n%v\n", r.Scheme())
	for _, tp := range want {
		fmt.Fprintf(&wantText, "%s %s\n", tp[0], tp[1])
	}
	wantText.WriteString("end\n")
	var got bytes.Buffer
	if err := WriteRelation(&got, "R", r); err != nil {
		t.Fatal(err)
	}
	if got.String() != wantText.String() {
		t.Error("WriteRelation's row order is not sort.Slice's over Tuple.Less")
	}
	for i, tp := range r.Sorted() {
		if !tp.Equal(want[i]) {
			t.Fatalf("Sorted()[%d] = %v, want %v", i, tp, want[i])
		}
	}
	if !strings.Contains(RenderSorted(r), string(want[0][1])) {
		t.Error("RenderSorted lost a value")
	}
}

// TestSortedOrderIsMemoized: the sorted view is computed once per relation
// and length. Concurrent readers of one relation — a cached result streamed
// to several requests at once — agree byte for byte (and are race-clean
// under -race); a relation that grows after it was sorted is sorted again,
// with no invalidation call; and writing a 1 025-row relation a second time
// allocates a few small objects and no permutation (4 100 bytes of int32).
func TestSortedOrderIsMemoized(t *testing.T) {
	r := New(MustScheme("A", "B"))
	for i := 0; i < 1025; i++ {
		r.MustAdd(TupleOf(fmt.Sprint((i*7919)%1031), fmt.Sprint("v", i%17)))
	}
	var want bytes.Buffer
	if err := WriteRelation(&want, "R", r.Clone()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]bytes.Buffer, 8)
	for i := range got {
		wg.Add(1)
		go func(out *bytes.Buffer) {
			defer wg.Done()
			if err := StreamRelation(out, "R", r, 256, func() {}); err != nil {
				t.Error(err)
			}
		}(&got[i])
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want.Bytes()) {
			t.Fatalf("concurrent reader %d streamed different bytes", i)
		}
	}

	bw := bufio.NewWriter(io.Discard) // adopted by the codec: no buffer of its own
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteRelation(bw, "R", r); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent >= 1025*4 {
		t.Errorf("writing a sorted relation again allocated %d bytes: a permutation's worth", spent)
	}
	if n := testing.AllocsPerRun(10, func() { _ = WriteRelation(bw, "R", r) }); n > 8 {
		t.Errorf("writing a sorted relation again allocates %v objects", n)
	}

	first := r.Sorted()[0]
	r.MustAdd(TupleOf("!", "before every digit"))
	sorted := r.Sorted()
	if len(sorted) != 1026 || !sorted[0].Equal(TupleOf("!", "before every digit")) || !sorted[1].Equal(first) {
		t.Errorf("after an Add, Sorted() starts %v, %v over %d rows", sorted[0], sorted[1], len(sorted))
	}
	var again bytes.Buffer
	if err := WriteRelation(&again, "R", r); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(again.String(), "relation R\nA B\n! before every digit\n") {
		t.Errorf("after an Add, WriteRelation starts %q", again.String()[:40])
	}
}

// TestRowProducersAllocatePerRelation: on a 4 096-row input a producer
// allocates per backing array and per growth step of a slice — O(log rows)
// plus the bytes over the chunk size — where each used to allocate once
// or twice per row. The ceilings are a sixteenth of a row each; the
// block-form reader alone still pays one string per line, to its scanner.
func TestRowProducersAllocatePerRelation(t *testing.T) {
	const rows = 4096
	r := New(MustScheme("A", "B", "C"))
	var bare strings.Builder
	bare.WriteString("A B C\n")
	for i := 0; i < rows; i++ {
		r.MustAdd(TupleOf(fmt.Sprint("a", i), fmt.Sprint("b", i%64), fmt.Sprint("c", i%5)))
		fmt.Fprintf(&bare, "a%d b%d c%d\n", i, i%64, i%5)
	}
	block := "relation R\n" + bare.String() + "end\n"
	ab := MustScheme("A", "B")
	for name, tc := range map[string]struct {
		ceiling float64
		run     func() int
	}{
		"Project": {rows / 16, func() int {
			p, err := r.Project(ab)
			if err != nil {
				t.Fatal(err)
			}
			return p.Len()
		}},
		"Tuples": {rows / 16, func() int { return len(r.Tuples()) }},
		"Sorted": {rows / 16, func() int { return len(r.Sorted()) }},
		"Clone":  {rows / 16, func() int { return r.Clone().Len() }},
		"ReadRelation bare": {rows / 16, func() int {
			_, got, err := ReadRelation(strings.NewReader(bare.String()))
			if err != nil {
				t.Fatal(err)
			}
			return got.Len()
		}},
		"ReadRelation block": {rows + rows/16, func() int {
			_, got, err := ReadRelation(strings.NewReader(block))
			if err != nil {
				t.Fatal(err)
			}
			return got.Len()
		}},
	} {
		if n := tc.run(); n != rows {
			t.Fatalf("%s: %d rows, want %d", name, n, rows)
		}
		got := testing.AllocsPerRun(5, func() { tc.run() })
		t.Logf("%s: %v allocations for %d rows", name, got, rows)
		if got > tc.ceiling {
			t.Errorf("%s allocates %v times for %d rows, ceiling %v", name, got, rows, tc.ceiling)
		}
	}
}
