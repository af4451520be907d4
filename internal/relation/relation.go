package relation

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Relation is a finite set of tuples over a fixed scheme. Tuples are kept
// in insertion order for stable iteration, with a hash index enforcing set
// semantics (adding a duplicate is a no-op).
//
// The index is key-free: an open-addressing table (Index) from the
// 64-bit Tuple.Hash to the tuple's position, holding no copy of the
// tuple in any form. Add and Contains hash the probe tuple, walk the
// candidates with that hash and confirm one with Tuple.Equal, so a
// collision costs a comparison and never an answer, and neither
// allocates beyond Add's copy of a new tuple.
//
// The rows themselves live in backing arrays the relation owns (rowStore,
// store.go), arity-strided and without a header per row: the Tuple a
// reader gets is a cap == len view cut into one of them on demand, never a
// heap object of its own.
//
// Relations built by New, FromTuples, FromRows and the codec index every
// tuple as it is added. Relations whose rows are distinct by construction
// — a Builder's (join outputs), Clone's and a column permutation's — skip
// the index and build it on the first operation that needs it (Contains,
// Add, ...): such intermediates are often only ever scanned, never
// probed. The lazy build is guarded by a sync.Once, preserving the
// contract below.
//
// A Relation is not safe for concurrent mutation; concurrent reads
// (Fingerprint included) are fine.
type Relation struct {
	scheme Scheme
	rowStore
	index     Index     // hash -> row position; trails the rows until ensureIndex
	indexOnce sync.Once // guards the lazy build for Builder relations
	// fp memoizes Fingerprint. Relations only grow, so the memo is
	// current exactly when it covers all n rows.
	fp atomic.Pointer[fingerprint]
	// sorted memoizes SortedOrder under the same rule, so Add needs no
	// invalidation: an immutable relation — a cached result served again
	// and again — is sorted once.
	sorted atomic.Pointer[[]int32]
	// bornSorted is the mark of a producer that built r's rows in
	// lexicographic order (Builder.SortedRelation): the rows it built, plus
	// one, so that the zero value marks nothing. Like the memos it holds
	// exactly while it covers all n rows, so an Add clears it.
	bornSorted int
	// paths memoizes Path under the same rule: a projection of an
	// unchanged catalog relation, and a join's grouping or trie over it,
	// is built by its first request only.
	paths atomic.Pointer[accessPaths]
}

// New returns an empty relation over the given scheme.
func New(scheme Scheme) *Relation {
	return &Relation{scheme: scheme, rowStore: rowStore{width: scheme.Len()}}
}

// ensureIndex returns the position index, completing it on first use for
// relations assembled from distinct rows. Safe under concurrent
// reads: the once serializes the build, and for eagerly indexed
// relations the guarded closure finds nothing to do.
func (r *Relation) ensureIndex() *Index {
	r.indexOnce.Do(func() {
		if r.index.Len() == r.n {
			return
		}
		r.index.Reserve(r.n)
		for i := r.index.Len(); i < r.n; i++ {
			r.index.Insert(r.at(i).Hash())
		}
	})
	return &r.index
}

// FromTuples builds a relation over scheme containing the given tuples
// (duplicates collapse). It reports an arity error if any tuple does not
// match the scheme.
func FromTuples(scheme Scheme, tuples []Tuple) (*Relation, error) {
	r := New(scheme)
	r.reserve(len(tuples))
	for _, t := range tuples {
		if _, err := r.Add(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// FromRows is a convenience constructor taking rows of plain strings
// (duplicates collapse).
func FromRows(scheme Scheme, rows ...[]string) (*Relation, error) {
	r := New(scheme)
	r.reserve(len(rows))
	r.index.Reserve(len(rows))
	for _, vals := range rows {
		if len(vals) != scheme.Len() {
			return nil, r.arityError(TupleOf(vals...))
		}
		row := r.next()
		for i, v := range vals {
			row[i] = Value(v)
		}
		r.commit(row)
	}
	return r, nil
}

// Scheme returns the relation's scheme.
func (r *Relation) Scheme() Scheme { return r.scheme }

// Len returns the number of tuples (the paper's |R|).
func (r *Relation) Len() int { return r.n }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.n == 0 }

// Add inserts tuple t, returning true if it was new and false if it was
// already present. It reports an error when the tuple's arity does not
// match the scheme. The relation stores a copy; the caller keeps t.
func (r *Relation) Add(t Tuple) (bool, error) {
	if len(t) != r.scheme.Len() {
		return false, r.arityError(t)
	}
	ix := r.ensureIndex()
	h := t.Hash()
	if ix.find(&r.rowStore, t, h) >= 0 {
		return false, nil
	}
	r.copyRow(t)
	ix.Insert(h)
	return true, nil
}

func (r *Relation) arityError(t Tuple) error {
	return fmt.Errorf("relation: tuple %v has arity %d, scheme %v has arity %d", t, len(t), r.scheme, r.scheme.Len())
}

// commit is Add for a row the caller filled in place: row must be what
// r.next just returned. A new row is kept where it is; a duplicate is
// handed back to the store, whose next row reuses its memory.
func (r *Relation) commit(row Tuple) bool {
	ix := r.ensureIndex()
	h := row.Hash()
	if ix.find(&r.rowStore, row, h) >= 0 {
		return false
	}
	r.push()
	ix.Insert(h)
	return true
}

// fit is rowStore.fit for the dedup index too: a relation whose
// reservations were estimated from outside input — an upload's lines and
// first rows — keeps what its rows need once it is read.
func (r *Relation) fit() {
	r.rowStore.fit()
	r.index.Fit()
}

// MustAdd is Add for statically known tuples; it panics on arity errors.
func (r *Relation) MustAdd(t Tuple) bool {
	ok, err := r.Add(t)
	if err != nil {
		panic(err)
	}
	return ok
}

// Contains reports whether tuple t (positional, in scheme order) is in the
// relation.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.scheme.Len() {
		return false
	}
	return r.ensureIndex().find(&r.rowStore, t, t.Hash()) >= 0
}

// ContainsNamed reports whether the named tuple, which may list its
// attributes in any order, is in the relation. It is false when the tuple's
// scheme is not set-equal to the relation's.
func (r *Relation) ContainsNamed(nt NamedTuple) bool {
	if !nt.Scheme.Equal(r.scheme) {
		return false
	}
	p, err := projectionOnto(nt.Scheme, r.scheme)
	if err != nil {
		return false
	}
	return r.Contains(p.apply(nt.Vals))
}

// Tuple returns the i-th tuple in insertion order: a view of the
// relation's storage, which must not be modified.
func (r *Relation) Tuple(i int) Tuple { return r.at(i) }

// Each calls fn for every tuple in insertion order until fn returns false.
// The tuple passed to fn must not be modified.
func (r *Relation) Each(fn func(Tuple) bool) {
	for i := 0; i < r.n; i++ {
		if !fn(r.at(i)) {
			return
		}
	}
}

// Tuples returns a copy of the tuple list in insertion order. The copies
// are the caller's to modify; they share one backing array, each a cap ==
// len view of it.
func (r *Relation) Tuples() []Tuple { return r.copies(nil) }

// Sorted returns a copy of the tuples in deterministic lexicographic
// order.
func (r *Relation) Sorted() []Tuple { return r.copies(r.SortedOrder()) }

// copies returns copies of r's rows, in insertion order or, when order is
// not nil, at the positions order lists, cut from one backing array.
func (r *Relation) copies(order []int32) []Tuple {
	w := r.width
	out := make([]Tuple, r.n)
	vals := make([]Value, r.n*w)
	for i := range out {
		j := i
		if order != nil {
			j = int(order[i])
		}
		out[i] = vals[i*w : (i+1)*w : (i+1)*w]
		copy(out[i], r.at(j))
	}
	return out
}

// BornSorted reports whether r's rows are stored in lexicographic order
// because the producer that built them says so (Builder.SortedRelation),
// and r has gained no row since.
func (r *Relation) BornSorted() bool { return r.bornSorted == r.n+1 }

// SortedOrder is Sorted without the copies: the positions of the
// relation's own tuples in lexicographic order, or nil when r is
// BornSorted and insertion order is that order — a reader walks
// Tuple(i) then, and no permutation exists. The order is shared with
// every other reader of the relation and must not be written. Rows are
// distinct, so the order is total and an unstable sort is deterministic.
// Computed once per relation and length; concurrent first readers may
// each compute it, and publish equal orders.
func (r *Relation) SortedOrder() []int32 {
	if r.BornSorted() {
		return nil
	}
	if memo := r.sorted.Load(); memo != nil && len(*memo) == r.n {
		return *memo
	}
	order := make([]int32, r.n)
	rows := sortRows.Get().(*[]Tuple)
	views := slices.Grow((*rows)[:0], r.n)[:r.n]
	for i := range order {
		order[i], views[i] = int32(i), r.at(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return views[a].Compare(views[b]) })
	clear(views) // a pooled view must not pin r
	*rows = views
	sortRows.Put(rows)
	r.sorted.Store(&order)
	return order
}

// sortRows holds the row views a sort compares: cut once per row instead
// of twice per comparison, in a buffer that outlives the sort, so sorting
// costs no header per row either.
var sortRows = sync.Pool{New: func() any { return new([]Tuple) }}

// Clone returns an independent copy of the relation.
func (r *Relation) Clone() *Relation {
	out := New(r.scheme)
	out.reserve(r.n)
	for i := 0; i < r.n; i++ {
		out.copyRow(r.at(i))
	}
	return out
}

// alignTo returns r's tuples rewritten into the column order of target,
// which must be set-equal to r's scheme.
func (r *Relation) alignTo(target Scheme) (*Relation, error) {
	if !r.scheme.Equal(target) {
		return nil, fmt.Errorf("relation: schemes %v and %v are not set-equal", r.scheme, target)
	}
	if r.scheme.SameOrder(target) {
		return r, nil
	}
	p, err := projectionOnto(r.scheme, target)
	if err != nil {
		return nil, err
	}
	// A column permutation of distinct rows is distinct.
	out := New(target)
	out.reserve(r.n)
	for i := 0; i < r.n; i++ {
		out.gather(r.at(i), p.idx)
	}
	return out, nil
}

// Project computes π_onto(r), the set of restrictions of r's tuples to the
// attributes of onto (which must all belong to r's scheme). The result is
// new and the caller's; Projection is the shared one.
func (r *Relation) Project(onto Scheme) (*Relation, error) {
	p, err := projectionOnto(r.scheme, onto)
	if err != nil {
		return nil, err
	}
	return r.project(onto, p.idx), nil
}

// project is π over the columns cols of r, named onto.
func (r *Relation) project(onto Scheme, cols []int) *Relation {
	// Count first: hash and compare the projected columns in place,
	// noting the source row of each projection not seen before — the
	// index's candidates are confirmed against those source rows — and
	// only then build exactly the distinct rows.
	out := New(onto)
	var firsts []int32
	for i := 0; i < r.n; i++ {
		t := r.at(i)
		h := t.HashOf(cols)
		if out.index.findOf(&r.rowStore, firsts, t, cols, h) >= 0 {
			continue
		}
		firsts = append(firsts, int32(i))
		out.index.Insert(h)
	}
	out.reserve(len(firsts))
	for _, i := range firsts {
		out.gather(r.at(int(i)), cols)
	}
	return out
}

// Projection is π_onto(r) as a fact of r: built on first use and memoized
// on r as an access path (Path) keyed by onto's column positions, so every
// later projection of an unchanged r onto the same columns — the next
// request's leg over a catalog relation — is the same relation, with the
// paths later joins memoized on it. It is shared: it must not be modified.
// Its attribute names are r's own, so it pins nothing of whoever asked.
func (r *Relation) Projection(onto Scheme) (*Relation, error) {
	var buf [64]int // the positions of any but the widest projection, off the heap
	cols, err := positionsOf(r.scheme, onto, buf[:0])
	if err != nil {
		return nil, err
	}
	p, err := Path(r, cols, func() (projected, error) {
		attrs := make([]Attribute, len(cols))
		for i, c := range cols {
			attrs[i] = r.scheme.attrs[c]
		}
		return projected{r.project(MustScheme(attrs...), cols)}, nil
	})
	return p.Relation, err
}

// projected is a projection as a path of the relation it projects: its
// rows and the dedup index project builds as it counts.
type projected struct{ *Relation }

func (p projected) Bytes() int64 { return p.Relation.Bytes() + p.index.Bytes() }

// Bytes reports what r's rows occupy: their backing arrays — a Value
// header per cell, and the tail the last array keeps for rows to come —
// and the chunk directory. It counts neither the strings the values point
// to, which r shares with wherever it read them, nor r's index or paths.
func (r *Relation) Bytes() int64 { return r.rowStore.bytes() }

// Union returns r ∪ o over r's column order. The schemes must be set-equal.
func (r *Relation) Union(o *Relation) (*Relation, error) {
	ao, err := o.alignTo(r.scheme)
	if err != nil {
		return nil, err
	}
	out := r.Clone()
	for i := 0; i < ao.n; i++ {
		out.MustAdd(ao.at(i))
	}
	return out, nil
}

// Intersect returns r ∩ o over r's column order. The schemes must be
// set-equal.
func (r *Relation) Intersect(o *Relation) (*Relation, error) {
	ao, err := o.alignTo(r.scheme)
	if err != nil {
		return nil, err
	}
	out := New(r.scheme)
	for i := 0; i < r.n; i++ {
		if t := r.at(i); ao.Contains(t) {
			out.MustAdd(t)
		}
	}
	return out, nil
}

// Difference returns r \ o over r's column order. The schemes must be
// set-equal.
func (r *Relation) Difference(o *Relation) (*Relation, error) {
	ao, err := o.alignTo(r.scheme)
	if err != nil {
		return nil, err
	}
	out := New(r.scheme)
	for i := 0; i < r.n; i++ {
		if t := r.at(i); !ao.Contains(t) {
			out.MustAdd(t)
		}
	}
	return out, nil
}

// SubsetOf reports whether every tuple of r is in o. The schemes must be
// set-equal.
func (r *Relation) SubsetOf(o *Relation) (bool, error) {
	ar, err := r.alignTo(o.scheme)
	if err != nil {
		return false, err
	}
	for i := 0; i < ar.n; i++ {
		if !o.Contains(ar.at(i)) {
			return false, nil
		}
	}
	return true, nil
}

// Equal reports whether r and o hold the same set of tuples over set-equal
// schemes (column order is immaterial). Relations over different attribute
// sets are never equal.
func (r *Relation) Equal(o *Relation) bool {
	if !r.scheme.Equal(o.scheme) || r.Len() != o.Len() {
		return false
	}
	sub, err := r.SubsetOf(o)
	return err == nil && sub
}

// Join computes the natural join r ∗ o:
//
//	r ∗ o = { t over scheme(r) ∪ scheme(o) : t[scheme(r)] ∈ r, t[scheme(o)] ∈ o }
//
// using a hash join on the shared attributes, keyed by the serialized
// Tuple.key string — deliberately not by Tuple.Hash, so it shares no
// machinery with the engine it checks. This is the reference
// implementation — the independent oracle the join package's tests
// compare every strategy against — not an engine path: production code
// joins through package join, whose algorithms run governed, metered and
// traced under a join.Exec.
func (r *Relation) Join(o *Relation) (*Relation, error) {
	shared := r.scheme.Intersect(o.scheme)
	outScheme := r.scheme.Union(o.scheme)

	// Probe side column mapping: positions of o's attributes that are not
	// shared, appended after r's columns in outScheme order.
	rest := o.scheme.Minus(r.scheme)
	restPos := make([]int, rest.Len())
	for i := 0; i < rest.Len(); i++ {
		j, _ := o.scheme.Pos(rest.Attr(i))
		restPos[i] = j
	}

	keyR, err := projectionOnto(r.scheme, shared)
	if err != nil {
		return nil, err
	}
	keyO, err := projectionOnto(o.scheme, shared)
	if err != nil {
		return nil, err
	}

	// Build on the smaller input.
	build, probe := r, o
	keyBuild, keyProbe := keyR, keyO
	buildIsLeft := true
	if o.Len() < r.Len() {
		build, probe = o, r
		keyBuild, keyProbe = keyO, keyR
		buildIsLeft = false
	}

	table := make(map[string][]Tuple, build.Len())
	for i := 0; i < build.n; i++ {
		t := build.at(i)
		k := keyBuild.apply(t).key()
		table[k] = append(table[k], t)
	}

	out := New(outScheme)
	emit := func(left, right Tuple) error {
		joined := make(Tuple, 0, outScheme.Len())
		joined = append(joined, left...)
		for _, j := range restPos {
			joined = append(joined, right[j])
		}
		_, err := out.Add(joined)
		return err
	}
	for i := 0; i < probe.n; i++ {
		t := probe.at(i)
		k := keyProbe.apply(t).key()
		for _, m := range table[k] {
			var err error
			if buildIsLeft {
				err = emit(m, t) // m is from r, t from o
			} else {
				err = emit(t, m) // t is from r, m from o
			}
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// ActiveDomain returns, for each attribute of the scheme, the set of values
// appearing in that column, in first-appearance order. It is the value
// universe used by the exhaustive deciders.
func (r *Relation) ActiveDomain() map[Attribute][]Value {
	dom := make(map[Attribute][]Value, r.scheme.Len())
	seen := make(map[Attribute]map[Value]bool, r.scheme.Len())
	for i := 0; i < r.scheme.Len(); i++ {
		seen[r.scheme.Attr(i)] = make(map[Value]bool)
	}
	for row := 0; row < r.n; row++ {
		for i, v := range r.at(row) {
			a := r.scheme.Attr(i)
			if !seen[a][v] {
				seen[a][v] = true
				dom[a] = append(dom[a], v)
			}
		}
	}
	return dom
}

// String renders the relation as "scheme{n tuples}".
func (r *Relation) String() string {
	return fmt.Sprintf("%v{%d tuples}", r.scheme, r.Len())
}
