package relation

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Row storage. A stored row has no header: nothing is kept per row. Row i
// of a store is width consecutive values at a place fixed by i alone, in
// one of a few backing arrays the store owns, and the row a reader gets
// (at) is a view cut there on demand, with cap == len so that an append on
// a row reallocates instead of reaching its neighbour. rowStore is the
// only place rows are carved and read.
//
// The layout: rows are grouped in chunks of per rows each, so row i is
// row i mod per of chunk i / per (locate), and the store keeps one slice
// header per chunk, not one per row — 24 bytes, three sevenths of a
// two-column row. The arithmetic is small enough that reading a row
// inlines into its caller.
//
// The rule:
//
//   - a producer that can learn its row count before it builds a row
//     (hash join, tree join, Project, Clone, alignTo, FromRows, the codec)
//     reserves exactly that many rows: a chunk is as large as chunkBytes
//     allows, and the last one holds exactly the rows left;
//   - a producer that cannot (Add of a caller's tuple, the generic join's
//     emit) grows in slabs: a chunk is as large as slabBytes allows,
//     allocated whole when its first row is carved and never copied.
//
// Go's allocator is already byte-exact for rows up to 256 B, so a slab
// saves mallocs but costs bytes — a partly empty tail slab per relation.
// Count-first is what pays for it; no slab where a count is available
// (DESIGN.md, "Relation storage", has the measurements). A store that
// outgrows its reservation — an Add to a Clone — grows the short chunk the
// reservation ended in by doubling it, the one copy the store makes.
//
// A row handed out by the store pins its backing array for as long as
// anything holds the row: one slab or chunk of at most chunkBytes, of a
// relation that was itself admitted under the governor.
type rowStore struct {
	width  int       // values per row: the stride
	n      int       // rows stored
	chunks [][]Value // chunk c's rows, cap == len; the last may be short of per rows
	per    int       // rows of a whole chunk; 0 before the first is laid out
	magic  uint64    // ⌈2⁶⁴ / per⌉: locate divides by per with one multiplication
	// reserved counts the rows reserve promised that have no backing array
	// yet; limit is the rows promised, which a counted Builder (fixed)
	// must not outgrow.
	reserved int
	limit    int
	fixed    bool
}

const (
	// slabBytes caps a chunk of a store that grows: large enough that a
	// 1 025-row, two-column relation takes 5 backing arrays instead of
	// 1 025, small enough that the unused tail of a relation's last slab
	// stays under the 2 % the benchmark allows alloc_kb_per_request to
	// move. One value short of 8 KB, because the allocator prefixes an
	// array of pointers with a header word, which would push a full 8 KB
	// into its 9 472-byte class.
	slabBytes = 8<<10 - valueBytes
	// chunkBytes caps one backing array of a reservation at the
	// allocator's largest size class. Anything larger is rounded up to
	// whole 8 KB pages — 1 025 rows of four columns, 65 600 bytes, would
	// occupy 73 728 — while a size class wastes at most an eighth of the
	// last chunk.
	chunkBytes = 32 << 10

	valueBytes  = int(unsafe.Sizeof(Value("")))
	headerBytes = int64(unsafe.Sizeof([]Value(nil))) // one chunk's entry in the directory
)

// RowBytes is what one row of the given arity occupies in a relation's
// backing arrays: a Value header per cell, and nothing per row.
func RowBytes(arity int) int64 { return int64(arity * valueBytes) }

// layout fixes the chunk size: chunks of at most limit bytes, and of two
// rows at least, since a divisor of 1 has no magic. Rows of width 0 take
// no memory and all share one empty chunk.
func (s *rowStore) layout(limit int) {
	s.per = 1 << 31
	if s.width > 0 {
		s.per = max(limit/(s.width*valueBytes), 2)
	}
	s.magic = ^uint64(0)/uint64(s.per) + 1
}

// locate returns the chunk row i lies in and its place there, in rows:
// i / per and i mod per, the division exact for every row index below 2³²
// (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
// 2019).
func (s *rowStore) locate(i int) (c, o int) {
	q, _ := bits.Mul64(s.magic, uint64(i))
	return int(q), i - int(q)*s.per
}

// at returns row i, a view into the store's backing arrays.
func (s *rowStore) at(i int) Tuple {
	if uint(i) >= uint(s.n) {
		panic("relation: row index out of range")
	}
	c, o := s.locate(i)
	o *= s.width
	return s.chunks[c][o : o+s.width : o+s.width]
}

// reserve promises the store, which must be empty, exactly rows rows: the
// chunk directory is sized now, the backing arrays as rows are carved.
func (s *rowStore) reserve(rows int) {
	s.reserved, s.limit = rows, rows
	if rows == 0 {
		return
	}
	s.layout(chunkBytes)
	c, _ := s.locate(rows - 1)
	s.chunks = make([][]Value, 0, c+1)
}

// fit gives back what a reservation promised and no row used — an upload's
// blank, comment and duplicate lines: the chunk directory is cut to the
// chunks carved, and a last chunk at least half empty to the rows in it.
// A reservation estimated from outside input must end here, so that what
// the store keeps follows its rows, not the estimate.
func (s *rowStore) fit() {
	s.reserved, s.limit = 0, s.n
	if s.n == 0 {
		s.chunks = nil
		return
	}
	c, o := s.locate(s.n - 1)
	if c+1 < cap(s.chunks) {
		s.chunks = append(make([][]Value, 0, c+1), s.chunks[:c+1]...)
	}
	if used := (o + 1) * s.width; 2*used <= len(s.chunks[c]) {
		s.chunks[c] = append(make([]Value, 0, used), s.chunks[c][:used]...)
	}
}

// next returns the row the store would carve next — width values, cap ==
// len, zeroed or stale — without committing it: until push, a second call
// returns the same memory. That is how a producer fills a row, finds it a
// duplicate and hands it back.
func (s *rowStore) next() Tuple {
	if s.fixed && s.n == s.limit {
		panic("relation: Builder given more rows than it was created for")
	}
	if s.per == 0 {
		s.layout(slabBytes)
	}
	w := s.width
	c, o := s.locate(s.n)
	switch {
	case c == len(s.chunks):
		// A new chunk: whole, or as much of it as reserved rows fill.
		rows := s.per
		if s.reserved > 0 {
			rows = min(rows, s.reserved)
			s.reserved -= rows
		}
		s.chunks = append(s.chunks, make([]Value, rows*w))
	case (o+1)*w > len(s.chunks[c]):
		// The reservation ended inside this chunk: double it.
		grown := make([]Value, min(s.per, 2*o)*w)
		copy(grown, s.chunks[c])
		s.chunks[c] = grown
	}
	o *= w
	return s.chunks[c][o : o+w : o+w]
}

// push commits the row next just returned as the last row.
func (s *rowStore) push() { s.n++ }

// copyRow stores a copy of t.
func (s *rowStore) copyRow(t Tuple) {
	copy(s.next(), t)
	s.push()
}

// gather stores the row (src[cols[0]], src[cols[1]], …).
func (s *rowStore) gather(src Tuple, cols []int) {
	row := s.next()
	for i, c := range cols {
		row[i] = src[c]
	}
	s.push()
}

// bytes reports what the store occupies: its backing arrays, whole, and
// its chunk directory.
func (s *rowStore) bytes() int64 {
	held := headerBytes * int64(cap(s.chunks))
	for _, chunk := range s.chunks {
		held += int64(cap(chunk) * valueBytes)
	}
	return held
}

// Builder assembles a relation whose rows the caller guarantees to be
// pairwise distinct — a join's output, which determines its source pair —
// writing them straight into backing arrays the relation will own. It is
// that relation, under construction: it never hands out a row to fill —
// each method takes its sources — so no writable row crosses the package
// boundary.
//
// A Builder is the Sink that materializes: Begin with a row count reserves
// exactly that many rows; that is the form for every producer that can
// count before it builds. A negative count means the count is unknowable
// and the builder grows in slabs. NewBuilder is new(Builder) and Begin.
type Builder Relation

// NewBuilder returns a builder for a relation over scheme that will hold
// exactly rows rows, or an unknown number when rows < 0.
func NewBuilder(scheme Scheme, rows int) *Builder {
	b := new(Builder)
	b.Begin(scheme, rows)
	return b
}

// Begin makes b, which must be new, the builder of a relation over scheme
// of exactly rows rows, or of an unknown number when rows < 0. It wants
// the rows: it reports true.
func (b *Builder) Begin(scheme Scheme, rows int) bool {
	b.scheme, b.width = scheme, scheme.Len()
	if rows >= 0 {
		b.reserve(rows)
		b.fixed = true
	}
	return true
}

// Len returns the number of rows built so far.
func (b *Builder) Len() int { return b.n }

// Row appends a copy of t, a row over the builder's scheme, and asks for
// the next.
func (b *Builder) Row(t Tuple) bool {
	if len(t) != b.width {
		panic(fmt.Sprintf("relation: Builder.Row of %d columns into scheme %v", len(t), b.scheme))
	}
	b.copyRow(t)
	return true
}

// Ref names one value among several source tuples: column Col of the
// Src-th of them.
type Ref struct{ Src, Col int }

// Collect appends the row (srcs[from[0].Src][from[0].Col], …): an n-ary
// join's output tuple, each column read from the input row that supplies
// it; from must name one source value per attribute of the scheme.
func (b *Builder) Collect(srcs []Tuple, from []Ref) {
	if len(from) != b.width {
		panic(fmt.Sprintf("relation: Builder.Collect of %d columns into scheme %v", len(from), b.scheme))
	}
	row := b.next()
	for i, f := range from {
		row[i] = srcs[f.Src][f.Col]
	}
	b.push()
}

// Relation returns the relation built. It hashes nothing: the dedup index
// is built on the first operation that needs it.
// The builder must not be used afterwards.
func (b *Builder) Relation() *Relation {
	b.fixed = false
	return (*Relation)(b)
}

// SortedRelation is Relation for a producer that built its rows in
// lexicographic order — the generic join searching in output column order,
// the tree join enumerating in its column layout: the result is marked
// BornSorted, so reading it sorted sorts nothing. A producer that cannot
// guarantee the order must call Relation.
func (b *Builder) SortedRelation() *Relation {
	r := b.Relation()
	r.bornSorted = r.n + 1
	return r
}
