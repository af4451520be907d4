package relation

import (
	"fmt"
	"slices"
	"unsafe"
)

// Row storage. A stored row is not its own heap object: it is a view
// s[i:i+k:i+k] into a backing array its relation owns, with cap == len so
// that an append on a row reallocates instead of reaching its neighbour.
// rowStore is the only place rows are carved, on one rule:
//
//   - a producer that can learn its row count before it builds a row
//     (hash join, Project, Clone, alignTo, Tuples, FromRows) reserves
//     exactly that many rows: one header slice, and backing arrays that
//     hold exactly the rows, in chunks of at most chunkBytes;
//   - a producer that cannot (Add of a caller's tuple, the codec's
//     readers, the generic join's emit) grows in slabs that are never
//     copied: a few rows first, doubling, capped at slabBytes.
//
// Go's allocator is already byte-exact for rows up to 256 B, so a slab
// saves mallocs but costs bytes — a half-empty tail slab per relation.
// Count-first is what pays for it; no slab where a count is available
// (DESIGN.md, "Relation storage", has the measurements).
//
// A row handed out by the store pins its backing array for as long as
// anything holds the row: one slab of at most slabBytes, or one chunk of
// at most chunkBytes of a relation that was itself admitted under the
// governor.
type rowStore struct {
	tuples   []Tuple
	free     []Value // uncarved tail of the newest backing array
	reserved int     // rows reserve promised that have no backing array yet
	slab     int     // rows the last slab was sized for; 0 before the first
	fixed    bool    // a counted Builder: outgrowing the reservation is a bug, not a slab
}

const (
	// slabBytes caps a slab: large enough that a 1 025-row, two-column
	// upload takes 5 backing arrays instead of 1 025, small enough that
	// the unused tail of a relation's last slab stays under the 2 % the
	// benchmark allows alloc_kb_per_request to move. One value short of
	// 8 KB, because the allocator prefixes an array of pointers with a
	// header word, which would push a full 8 KB into its 9 472-byte class.
	slabBytes = 8<<10 - valueBytes
	// slabStartRows is the first slab's size: most intermediates of the
	// paper's gadget queries hold a handful of rows.
	slabStartRows = 4
	// chunkBytes caps one backing array of a reservation at the
	// allocator's largest size class. Anything larger is rounded up to
	// whole 8 KB pages — 1 025 rows of four columns, 65 600 bytes, would
	// occupy 73 728 — while a size class wastes at most an eighth of the
	// last chunk.
	chunkBytes = 32 << 10

	valueBytes = int(unsafe.Sizeof(Value("")))
	tupleBytes = int64(unsafe.Sizeof(Tuple(nil)))
)

// reserve promises the store, which must be empty, exactly rows rows: the
// header slice is sized now, the backing arrays as rows are carved.
func (s *rowStore) reserve(rows int) {
	s.tuples = make([]Tuple, 0, rows)
	s.reserved = rows
}

// next returns the row the store would carve next — width values, cap ==
// len, zeroed or stale — without committing it: until push, a second call
// returns the same memory. That is how a producer fills a row, finds it a
// duplicate and hands it back.
func (s *rowStore) next(width int) Tuple {
	if width == 0 {
		return Tuple{} // the empty tuple needs no memory
	}
	if len(s.free) < width {
		if rows := min(s.reserved, max(chunkBytes/(width*valueBytes), 1)); rows > 0 {
			s.reserved -= rows
			s.free = make([]Value, rows*width)
		} else {
			s.slab = min(max(2*s.slab, slabStartRows), max(slabBytes/(width*valueBytes), 1))
			// Grow rounds the capacity up to the allocator's size class;
			// the slack is paid for either way, so carve it too.
			s.free = slices.Grow([]Value(nil), s.slab*width)
			s.free = s.free[:cap(s.free)]
		}
	}
	return s.free[:width:width]
}

// push commits row, which must be what next just returned, as the last row.
func (s *rowStore) push(row Tuple) {
	if s.fixed && len(s.tuples) == cap(s.tuples) {
		panic("relation: Builder given more rows than it was created for")
	}
	s.free = s.free[len(row):]
	s.tuples = append(s.tuples, row)
}

// copyRow stores a copy of t.
func (s *rowStore) copyRow(t Tuple) {
	row := s.next(len(t))
	copy(row, t)
	s.push(row)
}

// gather stores the row (src[cols[0]], src[cols[1]], …).
func (s *rowStore) gather(src Tuple, cols []int) {
	row := s.next(len(cols))
	for i, c := range cols {
		row[i] = src[c]
	}
	s.push(row)
}

// Builder assembles a relation whose rows the caller guarantees to be
// pairwise distinct — a join's output, which determines its source pair —
// writing them straight into backing arrays the relation will own. It
// never hands out a row to fill: each method takes its sources, so no
// writable row crosses the package boundary.
//
// NewBuilder with a row count reserves exactly that many rows; that is
// the form for every producer that can count before it builds. A negative
// count means the count is unknowable and the builder grows in slabs.
type Builder struct {
	scheme Scheme
	rows   rowStore
}

// NewBuilder returns a builder for a relation over scheme that will hold
// exactly rows rows, or an unknown number when rows < 0.
func NewBuilder(scheme Scheme, rows int) *Builder {
	b := &Builder{scheme: scheme}
	if rows >= 0 {
		b.rows.reserve(rows)
		b.rows.fixed = true
	}
	return b
}

// Len returns the number of rows built so far.
func (b *Builder) Len() int { return len(b.rows.tuples) }

// Gather appends the row (src[cols[0]], src[cols[1]], …); cols must name
// one source column per attribute of the scheme.
func (b *Builder) Gather(src Tuple, cols []int) {
	if len(cols) != b.scheme.Len() {
		panic(fmt.Sprintf("relation: Builder.Gather of %d columns into scheme %v", len(cols), b.scheme))
	}
	b.rows.gather(src, cols)
}

// Concat appends the row left ++ (right[rest[0]], right[rest[1]], …): a
// natural join's output tuple, all of left's columns and then the columns
// of right that left does not have.
func (b *Builder) Concat(left, right Tuple, rest []int) {
	row := b.rows.next(b.scheme.Len())
	if len(left)+len(rest) != len(row) {
		panic(fmt.Sprintf("relation: Builder.Concat of %d+%d columns into scheme %v", len(left), len(rest), b.scheme))
	}
	n := copy(row, left)
	for i, c := range rest {
		row[n+i] = right[c]
	}
	b.rows.push(row)
}

// Ref names one value among several source tuples: column Col of the
// Src-th of them.
type Ref struct{ Src, Col int }

// Collect appends the row (srcs[from[0].Src][from[0].Col], …): an n-ary
// join's output tuple, each column read from the input row that supplies
// it; from must name one source value per attribute of the scheme.
func (b *Builder) Collect(srcs []Tuple, from []Ref) {
	if len(from) != b.scheme.Len() {
		panic(fmt.Sprintf("relation: Builder.Collect of %d columns into scheme %v", len(from), b.scheme))
	}
	row := b.rows.next(len(from))
	for i, f := range from {
		row[i] = srcs[f.Src][f.Col]
	}
	b.rows.push(row)
}

// Relation returns the relation built. It hashes nothing: the dedup index
// is built on the first operation that needs it.
// The builder must not be used afterwards.
func (b *Builder) Relation() *Relation {
	b.rows.fixed = false
	return &Relation{scheme: b.scheme, rowStore: b.rows}
}
