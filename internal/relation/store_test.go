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
// row is the memory the duplicate was offered, no chunk is carved that the
// next row does not need, and every row already stored keeps its values.
func TestDuplicateHandsItsRowBack(t *testing.T) {
	s := MustScheme("A", "B", "C")
	line := func(i int) string { return fmt.Sprintf("a%d\tb%d  c%d", i, i, i) }
	for name, addDup := range map[string]func(r *Relation){
		"Add":         func(r *Relation) { r.MustAdd(TupleOf("a0", "b0", "c0")) },
		"upload line": func(r *Relation) { r.addLine(line(0)) },
	} {
		r := New(s)
		slabs := 0
		for i := 0; i < 1200; i++ {
			if n := r.addLine(line(i)); n != s.Len() {
				t.Fatalf("%s: line %d split into %d fields", name, i, n)
			}
			if _, o := r.locate(r.n); o == 0 {
				slabs++ // row i filled its slab: the duplicate below meets the boundary
			}
			addDup(r)
			offered := r.next()
			addDup(r)
			if again := r.next(); &again[0] != &offered[0] {
				t.Fatalf("%s: after row %d a duplicate moved the store's next row", name, i)
			}
			if c, _ := r.locate(r.n); len(r.chunks) != c+1 || r.n != i+1 {
				t.Fatalf("%s: after row %d a duplicate took a row or carved a chunk (%d rows, %d chunks)", name, i, r.n, len(r.chunks))
			}
		}
		if slabs < 4 {
			t.Fatalf("%s: 1 200 rows opened %d slabs; the case never met a boundary", name, slabs)
		}
		if r.Len() != 1200 {
			t.Fatalf("%s: %d rows, want 1 200", name, r.Len())
		}
		for i := 0; i < r.Len(); i++ {
			if want := TupleOf(fmt.Sprint("a", i), fmt.Sprint("b", i), fmt.Sprint("c", i)); !r.Tuple(i).Equal(want) {
				t.Fatalf("%s: row %d is %v, want %v", name, i, r.Tuple(i), want)
			}
		}
	}
}

// TestLocateCoversEveryRowOnce: under every chunk size a store can take,
// the multiplication that stands in for the division by it places each
// row index exactly where i / per and i mod per would.
func TestLocateCoversEveryRowOnce(t *testing.T) {
	for _, width := range []int{0, 1, 2, 3, 7, 37, 600, 3000} {
		for _, limit := range []int{slabBytes, chunkBytes} {
			s := rowStore{width: width}
			s.layout(limit)
			for _, i := range []int{0, 1, s.per - 1, s.per, s.per + 1, 1<<31 - 1, 1<<32 - 1} {
				if c, o := s.locate(i); c != i/s.per || o != i%s.per {
					t.Fatalf("width %d, limit %d: row %d placed at %d of chunk %d, chunks of %d rows", width, limit, i, o, c, s.per)
				}
			}
			for i := 0; i < 200_000; i++ {
				if c, o := s.locate(i); c != i/s.per || o != i%s.per {
					t.Fatalf("width %d, limit %d: row %d placed at %d of chunk %d, chunks of %d rows", width, limit, i, o, c, s.per)
				}
			}
		}
	}
}

// TestBackingArraysAreBounded pins the two sizes a shared row can pin: a
// slab or chunk of a store that grows never exceeds slabBytes, one of a
// reservation never chunkBytes, unless two rows alone are larger; and a
// reservation holds exactly its rows.
func TestBackingArraysAreBounded(t *testing.T) {
	for _, width := range []int{1, 3, 40, 600} {
		slabbed, reserved := rowStore{width: width}, rowStore{width: width}
		reserved.reserve(5000)
		row := make(Tuple, width)
		for i := 0; i < 5000; i++ {
			row[0] = Value(fmt.Sprint(i))
			slabbed.copyRow(row)
			reserved.copyRow(row)
		}
		for name, s := range map[string]*rowStore{"slab": &slabbed, "chunk": &reserved} {
			limit := max(map[string]int{"slab": slabBytes, "chunk": chunkBytes}[name], 2*width*valueBytes)
			for c, chunk := range s.chunks {
				if got := len(chunk) * valueBytes; got > limit {
					t.Errorf("width %d: %s %d of %d bytes, limit %d", width, name, c, got, limit)
				}
			}
			for i := 0; i < 5000; i++ {
				if got := s.at(i); len(got) != width || cap(got) != width || got[0] != Value(fmt.Sprint(i)) {
					t.Fatalf("width %d: %s row %d is %d values (cap %d) starting %q", width, name, i, len(got), cap(got), got[0])
				}
			}
		}
		if got, want := reserved.bytes()-headerBytes*int64(cap(reserved.chunks)), int64(5000*width*valueBytes); got != want || reserved.reserved != 0 {
			t.Errorf("width %d: a reservation of 5 000 rows holds %d bytes of rows, want exactly %d", width, got, want)
		}
	}
}

// TestRowsCostTheirCells: a relation keeps nothing per row beyond its
// cells. Out of every count-first producer, a 4 096-row, three-column
// relation occupies its 196 608 bytes of values and a chunk directory —
// Bytes says so, and building it allocates no more (a []Tuple header per
// row would be another 98 304).
func TestRowsCostTheirCells(t *testing.T) {
	const rows, cells = 4096, 4096 * 3 * 16
	abc := MustScheme("A", "B", "C")
	vals := make([][]string, rows)
	var bare strings.Builder
	bare.WriteString("A B C\n")
	for i := range vals {
		vals[i] = []string{fmt.Sprint("a", i), fmt.Sprint("b", i%64), fmt.Sprint("c", i%5)}
		fmt.Fprintf(&bare, "a%d b%d c%d\n", i, i%64, i%5)
	}
	base, err := FromRows(abc, vals...)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() *Relation{
		"Clone":   base.Clone,
		"alignTo": func() *Relation { r, _ := base.alignTo(MustScheme("C", "B", "A")); return r },
		"Builder": func() *Relation {
			b := NewBuilder(abc, rows)
			for i := 0; i < rows; i++ {
				b.Row(base.Tuple(i))
			}
			return b.Relation()
		},
		"ParseRelation": func() *Relation { _, r, _ := ParseRelation(bare.String()); return r },
	} {
		r := build()
		if got := r.Bytes(); got < cells || got > cells+256 {
			t.Errorf("%s: %d rows of three values occupy %d bytes, want %d and a directory", name, r.Len(), got, cells)
		}
		if name == "ParseRelation" {
			continue // the parser's index and scanner are its own
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		if spent := after.TotalAlloc - before.TotalAlloc; spent > cells+1024 {
			t.Errorf("%s: building %d rows of three values allocated %d bytes, %d beyond the cells", name, rows, spent, int(spent)-cells)
		}
	}
}

// TestUploadCostsItsRowsNotItsLines: the bare codec reserves rows from the
// text's line count, and a line need not make a row. A text of one row and
// 2¹⁷ blank, comment or duplicate lines parses into a relation that keeps
// one row's worth — rows, directory and dedup index — and parsing it
// allocates at most the one chunk the reservation carved before it was
// fitted, where sizing the store and the index by the lines would cost
// megabytes.
func TestUploadCostsItsRowsNotItsLines(t *testing.T) {
	const lines = 1 << 17
	for name, filler := range map[string]string{
		"blank":     "\n",
		"comment":   "# -\n",
		"duplicate": "a0 b0\n",
		"spaces":    "          \n",
	} {
		text := "A B\na0 b0\n" + strings.Repeat(filler, lines)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, r, err := ParseRelation(text)
		runtime.ReadMemStats(&after)
		if err != nil || r.Len() != 1 {
			t.Fatalf("%s: %v, %v", name, r, err)
		}
		if kept := r.Bytes() + r.index.Bytes(); kept > 256 {
			t.Errorf("%s: a one-row relation keeps %d bytes", name, kept)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 2*chunkBytes {
			t.Errorf("%s: parsing %d bytes into one row allocated %d bytes", name, len(text), spent)
		}
	}
}

// legText is a bare upload like a churned leg's: a two-column scheme and
// rows rows whose first value is fresh and whose second is shared.
func legText(rows int) string {
	var b strings.Builder
	b.WriteString("A B\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "t.a7_%d t.b0\n", i)
	}
	return b.String()
}

// catalogText is a catalog of relations blocks R0, R1, … each of rows rows
// over a two-column scheme of its own, its values written as legText's.
func catalogText(relations, rows int) string {
	var b strings.Builder
	for r := 0; r < relations; r++ {
		fmt.Fprintf(&b, "relation R%d\nA%d B%d\n", r, r, r)
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "t.a%d_%d t.b0\n", r, i)
		}
		b.WriteString("end\n")
	}
	return b.String()
}

// TestUploadIndexIsSizedOnce: the bare codec sizes its dedup index once,
// after SizeSample rows, for the rows the rest of the text forecasts. A
// 1 025-row two-column leg allocates its cells, one index of 4 096 slots
// and 1 025 hashes, and at most one chunk more — the scheme, the
// directory, the index's growth over the sample, size-class rounding —
// and keeps that one index, where an index grown row by row allocated
// 8 + 32 + … + 8 192 slots and kept twice what it needed.
func TestUploadIndexIsSizedOnce(t *testing.T) {
	const rows = 1025
	text := legText(rows)
	var one Index
	one.Reserve(rows)
	if one.Bytes() != 4*4096+8*rows {
		t.Fatalf("an index reserved for %d rows holds %d bytes", rows, one.Bytes())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, r, err := ParseRelation(text)
	runtime.ReadMemStats(&after)
	if err != nil || r.Len() != rows {
		t.Fatalf("%v rows, %v", r.Len(), err)
	}
	if kept := r.index.Bytes(); kept > one.Bytes() {
		t.Errorf("a %d-row upload keeps an index of %d bytes, want at most %d", rows, kept, one.Bytes())
	}
	cells := rows * RowBytes(2)
	if spent, budget := int64(after.TotalAlloc-before.TotalAlloc), cells+one.Bytes()+chunkBytes; spent > budget {
		t.Errorf("parsing a %d-row leg allocated %d bytes: %d beyond its cells and one index", rows, spent, spent-cells-one.Bytes())
	}
	for i := 0; i < rows; i++ {
		if !r.Contains(r.Tuple(i)) {
			t.Fatalf("row %d is not in the index", i)
		}
	}
}

// TestUploadFillerAfterTheSample: filler lines after the sample make the
// forecast an over-estimate — the bytes left look like rows to come — and
// fit gives it back. SizeSample rows followed by 2¹⁷ blank, comment,
// duplicate or whitespace lines keep the rows' cells and an index no
// larger than one reserved for them. What the forecast allocated in
// between is at most 24 bytes a forecast row (a hash and four slots), and
// a row's line is at least 4 bytes of text.
func TestUploadFillerAfterTheSample(t *testing.T) {
	const lines = 1 << 17
	var want Index
	want.Reserve(SizeSample)
	for name, filler := range map[string]string{
		"blank":     "\n",
		"comment":   "# -\n",
		"duplicate": "t.a7_0 t.b0\n",
		"spaces":    "          \n",
	} {
		text := legText(SizeSample) + strings.Repeat(filler, lines)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, r, err := ParseRelation(text)
		runtime.ReadMemStats(&after)
		if err != nil || r.Len() != SizeSample {
			t.Fatalf("%s: %v rows, %v", name, r.Len(), err)
		}
		if kept := r.index.Bytes(); kept > want.Bytes() {
			t.Errorf("%s: %d rows keep an index of %d bytes, one reserved for them %d", name, SizeSample, kept, want.Bytes())
		}
		if kept := r.Bytes(); kept > SizeSample*RowBytes(2)+256 {
			t.Errorf("%s: %d rows keep %d bytes of rows", name, SizeSample, kept)
		}
		if spent := after.TotalAlloc - before.TotalAlloc; spent > 2*chunkBytes+6*uint64(len(text)) {
			t.Errorf("%s: parsing %d bytes into %d rows allocated %d bytes", name, len(text), SizeSample, spent)
		}
		for i := 0; i < SizeSample; i++ {
			if !r.Contains(r.Tuple(i)) {
				t.Fatalf("%s: row %d is not in the fitted index", name, i)
			}
		}
	}
}

// TestCatalogParseAllocatesPerRelation: a catalog is read as an upload
// is — one pass over the text in hand, a relation's rows reserved from its
// block's lines and its dedup index sized once — so parsing three blocks
// of 1 025 rows allocates a bounded number of times per relation: its
// name, its block's copy, its scheme, its store and its index. A reader
// that made a string per line allocated over a thousand times a relation.
func TestCatalogParseAllocatesPerRelation(t *testing.T) {
	const relations, rows, perRelation = 3, 1025, 32
	text := catalogText(relations, rows)
	for name, parse := range map[string]func() (Database, error){
		"ParseDatabase": func() (Database, error) { return ParseDatabase(text) },
		"ReadDatabase":  func() (Database, error) { return ReadDatabase(strings.NewReader(text)) },
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if db, err := parse(); err != nil || len(db) != relations || db["R2"].Len() != rows {
				t.Fatal(db, err)
			}
		})
		if allocs > relations*perRelation {
			t.Errorf("%s: a catalog of %d relations of %d rows allocated %v times, want at most %d a relation", name, relations, rows, allocs, perRelation)
		}
	}
}

// TestSortedOrderIsLexicographic: the permutation sort behind
// WriteRelation and Render produces the order sort.Slice
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
			if err := WriteRelation(out, "R", r); err != nil {
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

// TestBornSortedMark: a Builder result its producer marks sorted is read
// in store order — SortedOrder builds no permutation, and writing, Sorted
// and RenderSorted follow insertion order at no cost of a sort — while an
// unmarked one (Builder.Relation, an empty New) sorts as before. Like the
// memos, the mark covers a length: an Add after it clears it, and the
// relation sorts again.
func TestBornSortedMark(t *testing.T) {
	const rows = 1025
	build := func() *Builder {
		b := NewBuilder(MustScheme("A", "B"), rows)
		for i := 0; i < rows; i++ {
			b.Row(TupleOf(fmt.Sprintf("%04d", i), fmt.Sprint("v", i%17)))
		}
		return b
	}
	if r := build().Relation(); r.BornSorted() || r.SortedOrder() == nil {
		t.Error("Builder.Relation carries the sorted mark")
	}
	if New(MustScheme("A")).BornSorted() {
		t.Error("an empty relation carries the sorted mark")
	}

	r := build().SortedRelation()
	if !r.BornSorted() || r.SortedOrder() != nil {
		t.Fatal("Builder.SortedRelation is not marked, or has a permutation")
	}
	var want bytes.Buffer
	if err := WriteRelation(&want, "R", r.Clone()); err != nil { // a Clone is unmarked: this one sorts
		t.Fatal(err)
	}
	bw := bufio.NewWriter(io.Discard) // adopted by the codec: no buffer of its own
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := WriteRelation(bw, "R", r); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent >= rows*4 {
		t.Errorf("writing a born-sorted relation allocated %d bytes: a permutation's worth", spent)
	}
	var got bytes.Buffer
	if err := WriteRelation(&got, "R", r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("a born-sorted relation writes other bytes than its sorted clone")
	}
	if RenderSorted(r) != RenderSorted(r.Clone()) {
		t.Error("a born-sorted relation renders other text than its sorted clone")
	}
	for i, tp := range r.Sorted() {
		if !tp.Equal(r.Tuple(i)) {
			t.Fatalf("Sorted()[%d] = %v, not row %d", i, tp, i)
		}
	}

	r.MustAdd(TupleOf("!", "before every digit"))
	if r.BornSorted() {
		t.Fatal("the mark survived an Add")
	}
	if sorted := r.Sorted(); !sorted[0].Equal(TupleOf("!", "before every digit")) {
		t.Errorf("after an Add, Sorted() starts %v", sorted[0])
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
