package relation

import "fmt"

// Index is a key-free hash table: it maps 64-bit hashes to the dense ids
// 0, 1, 2, … it hands out in insertion order, and stores nothing else.
// What an id names — a row of a relation, a group of build rows sharing a
// join key — lives with the caller, which confirms every candidate by
// comparing values, so a hash collision costs a comparison and never an
// answer. The zero Index is empty and ready to use.
//
// Candidates for a hash are walked with
//
//	for id, p := ix.Seek(h); id >= 0; id, p = ix.Next(h, p) { … }
//
// An Index is not safe for concurrent mutation; concurrent reads are fine.
type Index struct {
	slots  []uint32 // open addressing, linear probing: id+1, 0 = empty; a power of two long
	hashes []uint64 // hashes[id]: growth and candidate filtering never touch the caller's rows
}

// Len returns the number of ids inserted.
func (ix *Index) Len() int { return len(ix.hashes) }

// Bytes reports what the index holds: its slots and its hashes, growth
// slack included.
func (ix *Index) Bytes() int64 { return 4*int64(len(ix.slots)) + 8*int64(cap(ix.hashes)) }

// Reset empties the index and keeps its arrays, so a caller that builds
// one table after another allocates only for the largest.
func (ix *Index) Reset() {
	clear(ix.slots)
	ix.hashes = ix.hashes[:0]
}

// Reserve sizes the table for n ids, so inserting up to n never rehashes.
func (ix *Index) Reserve(n int) {
	if n > cap(ix.hashes) {
		ix.hashes = append(make([]uint64, 0, n), ix.hashes...)
	}
	size := 8
	for size < 2*n { // load factor ≤ 1/2 keeps the linear probes short
		size *= 2
	}
	if size <= len(ix.slots) {
		return
	}
	ix.slots = make([]uint32, size)
	for id, h := range ix.hashes {
		ix.place(h, uint32(id)+1)
	}
}

// Sizing a table that grows from an unknown count. Insert alone grows an
// index by quadrupling its slots, so a table of 1 025 entries allocates
// slots six times, 8 to 8 192, and keeps twice the slots and hashes it
// needs. A build that knows its input but not how many entries the input
// makes — an upload's rows, a join table's groups — instead files its
// first SizeSample inputs, reserves once for Forecast and, if the table
// is kept, Fits when it ends: an under-estimate grows as Insert always
// did, an over-estimate is given back.
const SizeSample = 64

// Forecast returns how many entries a build will have made when it ends,
// from the entries it made over the first read > 0 units of an input
// total units long: the entries extrapolated at that rate to the whole
// input, and at most bound, the most the input can make.
func Forecast(entries, read, total, bound int) int {
	return int(min(int64(bound), int64(entries)*int64(total)/int64(read)))
}

// Fit gives back what a reservation promised and no id used, when that is
// more than the ids themselves: an index reserved for more than twice its
// ids is rebuilt for exactly them.
func (ix *Index) Fit() {
	if n := ix.Len(); cap(ix.hashes) > 2*n {
		fitted := Index{hashes: append(make([]uint64, 0, n), ix.hashes...)}
		if n > 0 {
			fitted.Reserve(n)
		}
		*ix = fitted
	}
}

// place puts slot value s into the first free slot of h's probe sequence.
func (ix *Index) place(h uint64, s uint32) {
	mask := len(ix.slots) - 1
	p := int(h) & mask
	for ix.slots[p] != 0 {
		p = (p + 1) & mask
	}
	ix.slots[p] = s
}

// Insert records a new entry with hash h and returns its id, the number
// of entries inserted before it. It does not look for an equal entry:
// that is the caller's Seek loop.
func (ix *Index) Insert(h uint64) int {
	id := len(ix.hashes)
	if 2*(id+1) > len(ix.slots) {
		ix.Reserve(2 * (id + 1))
	}
	ix.hashes = append(ix.hashes, h)
	ix.place(h, uint32(id)+1)
	return id
}

// Seek returns the first id whose hash is h, or -1, and the position
// Next continues from.
func (ix *Index) Seek(h uint64) (id, next int) { return ix.Next(h, int(h)) }

// Next returns the first id at or after probe position p whose hash is
// h, or -1 when h's probe sequence is exhausted, and the position to
// continue from.
func (ix *Index) Next(h uint64, p int) (id, next int) {
	if len(ix.slots) == 0 {
		return -1, 0
	}
	mask := len(ix.slots) - 1
	for {
		p &= mask
		s := ix.slots[p]
		if s == 0 {
			return -1, 0
		}
		p++
		if ix.hashes[s-1] == h {
			return int(s - 1), p
		}
	}
}

// find returns the position in rows — the rows the ids of ix name — of
// the tuple equal to t, whose hash is h, or -1.
func (ix *Index) find(rows *rowStore, t Tuple, h uint64) int {
	for id, p := ix.Seek(h); id >= 0; id, p = ix.Next(h, p) {
		if rows.at(id).Equal(t) {
			return id
		}
	}
	return -1
}

// findOf is find among projections onto cols, none of which is built:
// id names the projection of rows[firsts[id]], and it matches the
// projection of t when the two rows agree on every column of cols.
func (ix *Index) findOf(rows *rowStore, firsts []int32, t Tuple, cols []int, h uint64) int {
next:
	for id, p := ix.Seek(h); id >= 0; id, p = ix.Next(h, p) {
		row := rows.at(int(firsts[id]))
		for _, c := range cols {
			if row[c] != t[c] {
				continue next
			}
		}
		return id
	}
	return -1
}

// TupleSet is a set of tuples in insertion order — a Relation without a
// scheme, for the seen-sets of the dependency checks. It is the
// relation's own row store: an Index over rows carved from slabs,
// deduplicating by hash and Tuple.Equal. Its tuples all have the width
// of the first one added. The zero TupleSet is empty and ready to use;
// it is not safe for concurrent mutation.
type TupleSet struct {
	rowStore
	ix Index
}

// Len returns the number of distinct tuples added.
func (s *TupleSet) Len() int { return s.n }

// Add inserts a copy of t unless an equal tuple is present, returning
// the tuple's position in insertion order and whether it was new. The
// caller keeps ownership of t.
func (s *TupleSet) Add(t Tuple) (pos int, added bool) {
	if s.n == 0 && s.per == 0 {
		s.width = len(t)
	} else if len(t) != s.width {
		panic(fmt.Sprintf("relation: TupleSet of %d-value tuples given %v", s.width, t))
	}
	h := t.Hash()
	if i := s.ix.find(&s.rowStore, t, h); i >= 0 {
		return i, false
	}
	s.copyRow(t)
	return s.ix.Insert(h), true
}
