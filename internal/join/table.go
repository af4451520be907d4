package join

import (
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// keyCols are the positions of a join's shared attributes in one input's
// tuples, in the shared scheme's order — the join key, read in place.
type keyCols []int

// sameKey reports whether t (key columns kt) and u (key columns ku) agree
// on every shared attribute.
func sameKey(t relation.Tuple, kt keyCols, u relation.Tuple, ku keyCols) bool {
	for i, c := range kt {
		if t[c] != u[ku[i]] {
			return false
		}
	}
	return true
}

// hashTable is the build side of a hash join or semijoin: the rows of one
// relation grouped by join key, with no key materialized. A key-free
// relation.Index maps the hash of a row's key columns to a group; a group
// is confirmed by comparing key columns with its first row, and its rows
// are chained in insertion order, so a probe walks its matches in the
// order the build relation holds them. Everything lives in five flat
// slices, whatever the number of keys. Read-only once built — which is
// what lets edgeTable share one among every join over its relation.
type hashTable struct {
	rel  *relation.Relation
	cols keyCols
	ix   relation.Index // hash of the key columns -> group id
	head []int32        // group -> its first row
	size []int32        // group -> its number of rows
	next []int32        // row -> the next row of its group, -1 at the end
}

// build groups rel's rows by the key columns cols, ticking g once per
// row. The table is kept as a fact of rel, so it ends fitted to its
// groups.
func (t *hashTable) build(g *governor.Governor, rel *relation.Relation, cols keyCols) error {
	t.rel, t.cols, t.next = rel, cols, make([]int32, rel.Len())
	var tail []int32 // group -> its last row so far
	for i := range t.next {
		if err := g.Tick(); err != nil {
			return err
		}
		if i == relation.SizeSample {
			tail = t.presize(len(t.next), tail)
		}
		row := rel.Tuple(i)
		h := row.HashOf(cols)
		tail = t.file(i, h, t.group(h, row, cols), tail)
	}
	t.ix.Fit()
	t.head, t.size = fitted(t.head), fitted(t.size)
	return nil
}

// presize sizes the index and the group arrays, tail among them, once,
// for the groups n rows will make at the rate the first
// relation.SizeSample made them, and returns tail grown.
func (t *hashTable) presize(n int, tail []int32) []int32 {
	groups := relation.Forecast(t.keys(), relation.SizeSample, n, n)
	t.ix.Reserve(groups)
	t.head, t.size = reserved(t.head, groups), reserved(t.size, groups)
	return reserved(tail, groups)
}

// reserved returns s with room for n elements: s itself when it has it,
// else a copy of s with capacity n. What Index.Reserve is for a group
// array.
func reserved(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s
	}
	return append(make([]int32, 0, n), s...)
}

// fitted returns s, or a copy of it when s was reserved for more than
// twice its length: what Index.Fit is for a group array.
func fitted(s []int32) []int32 {
	if cap(s) > 2*len(s) {
		return append(make([]int32, 0, len(s)), s...)
	}
	return s
}

// file chains row i, whose key hashes to h, at the end of group grp, or
// opens a new group for it when grp < 0; tail holds each group's last row
// so far and is returned grown. It is how every table grows, whatever its
// rows are.
func (t *hashTable) file(i int, h uint64, grp int, tail []int32) []int32 {
	t.next[i] = -1
	if grp >= 0 {
		t.next[tail[grp]] = int32(i)
		tail[grp] = int32(i)
		t.size[grp]++
		return tail
	}
	t.ix.Insert(h)
	t.head = append(t.head, int32(i))
	t.size = append(t.size, 1)
	return append(tail, int32(i))
}

// edgeTable is a hashTable built as a fact of rel: over all of rel's rows
// on first use and memoized on rel (relation.Path), so every later join
// over the same relation under the same key — the next request over an
// unchanged catalog relation, the next evaluation of a cached result —
// finds it built. A caller that needs only some rows filters by liveness
// as it walks; the table itself never depends on a request. The tree join
// reads it in its reducer and count passes only: its search reads the
// trie facts beside it (trieOf). The hash join builds its table per call
// (idTable): its build side is most often an intermediate of the request,
// row ids that no memo could key, and where it is a stored fact — the
// greedy plan's first join over φ_G's legs, two projections of R_G — the
// table is built per request all the same.
func edgeTable(g *governor.Governor, rel *relation.Relation, cols keyCols) (*hashTable, error) {
	return relation.Path(rel, cols, func() (*hashTable, error) {
		t := new(hashTable)
		if err := t.build(g, rel, cols); err != nil {
			return nil, err
		}
		return t, nil
	})
}

// Bytes is what the table holds: its row chain, its group arrays and its
// index, growth slack included.
func (t *hashTable) Bytes() int64 {
	return 4*int64(cap(t.next)+cap(t.head)+cap(t.size)) + t.ix.Bytes()
}

// keys returns the number of distinct join keys on the build side.
func (t *hashTable) keys() int { return len(t.head) }

// group returns the group whose key equals that of u (key columns ku,
// hashing to h), or -1.
func (t *hashTable) group(h uint64, u relation.Tuple, ku keyCols) int {
	for grp, p := t.ix.Seek(h); grp >= 0; grp, p = t.ix.Next(h, p) {
		if sameKey(t.rel.Tuple(int(t.head[grp])), t.cols, u, ku) {
			return grp
		}
	}
	return -1
}

// after returns the build row following row i in its group, or -1.
func (t *hashTable) after(i int) int { return int(t.next[i]) }

// bitset marks rows of one relation by position.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }

// sameRefs is sameKey for rows held as row ids: whether the row whose
// input rows are s (key read through ks) and the one whose input rows are
// u (key read through ku) agree on every shared attribute.
func sameRefs(s []relation.Tuple, ks []relation.Ref, u []relation.Tuple, ku []relation.Ref) bool {
	for i, f := range ks {
		if g := ku[i]; s[f.Src][f.Col] != u[g.Src][g.Col] {
			return false
		}
	}
	return true
}

// idTable is the build side of one step of a binary plan: a hashTable's
// groups and chains over the rows of an operand, whose key is read
// through refs into the input rows each of its rows holds the ids of
// (operand.load) — a key no row of values ever held.
type idTable struct {
	hashTable
	side *operand
	key  []relation.Ref   // the key, in the step's shared-attribute order
	cand []relation.Tuple // scratch: a candidate group's first row's input rows
	tail []int32          // group -> its last row so far
}

// build groups side's rows by key, ticking g once per row; row and cand
// hold one input row per source. It empties the table first and keeps its
// arrays: a plan builds one table per step in one idTable, so only the
// largest is allocated.
func (t *idTable) build(g *governor.Governor, side *operand, key []relation.Ref, row, cand []relation.Tuple) error {
	t.side, t.key, t.cand = side, key, cand
	t.next = reserved(t.next[:0], side.n)[:side.n]
	t.head, t.size, t.tail = t.head[:0], t.size[:0], t.tail[:0]
	t.ix.Reset()
	for i := range t.next {
		if err := g.Tick(); err != nil {
			return err
		}
		if i == relation.SizeSample {
			t.tail = t.presize(side.n, t.tail)
		}
		side.load(i, row)
		h := relation.HashRefs(row, key)
		t.tail = t.file(i, h, t.group(h, row, key), t.tail)
	}
	return nil
}

// group returns the group whose key equals that of the row whose input
// rows are u (key refs ku, hashing to h), or -1.
func (t *idTable) group(h uint64, u []relation.Tuple, ku []relation.Ref) int {
	for grp, p := t.ix.Seek(h); grp >= 0; grp, p = t.ix.Next(h, p) {
		t.side.load(int(t.head[grp]), t.cand)
		if sameRefs(t.cand, t.key, u, ku) {
			return grp
		}
	}
	return -1
}

// matches returns the first build row matching the row whose input rows
// are u (key refs ku, hashing to h), or -1, and how many build rows match;
// after follows the chain. The count is what lets a join learn its output
// cardinality from one lookup per probe row, before it builds a row.
func (t *idTable) matches(h uint64, u []relation.Tuple, ku []relation.Ref) (first, n int) {
	if grp := t.group(h, u, ku); grp >= 0 {
		return int(t.head[grp]), int(t.size[grp])
	}
	return -1, 0
}
