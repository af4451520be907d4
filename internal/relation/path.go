package relation

import "slices"

// Sized is what Path memoizes: a value that reports the bytes it holds, so
// a relation can bound what its paths pin.
type Sized interface{ Bytes() int64 }

// pathBudget bounds the access paths memoized on one relation: together
// they weigh at most pathBudget times the relation's own rows (Bytes). A
// path that would take them past it replaces all of them, the Memo rule of
// dropping wholesale at the bound, so a relation used under many column
// lists pays rebuilds, not memory; a path heavier than the budget on its
// own is built for its caller and not kept. The two measured shapes:
//
//   - R_G at relbench scale, 50 rows × 37 columns, weighs 30.4 KB. The
//     m+1 = 8 projections φ_G takes of it hold 0.93 of its values; with
//     their dedup indexes they weigh 1.12 times R_G. The tries on them are
//     paths of the projections, not of R_G: a 24 B view per projected
//     row, 0.75 times a two-column projection and less for wider ones.
//   - A 1 025-row leg of two columns, read from a bare upload, weighs 32.8
//     KB, and one edge table on it with every key distinct — its row
//     chain, group arrays and index, growth slack included — weighs 1.95
//     times that; two key sets, 3.9.
//
// Five holds two key sets on a leg with a projection or a trie beside
// them.
const pathBudget = 5

// accessPaths is what Path memoizes on a relation: a list of paths, the
// newest first, each built over the relation's first rows rows; bytes is
// what this path and the ones after it weigh together. Never written once
// published: a new path is a new head.
type accessPaths struct {
	rows  int
	bytes int64
	cols  []int
	path  Sized
	next  *accessPaths
}

// Path returns the access path on the columns cols that build makes from
// r's rows — a join's hash grouping, a projection — memoized on r under the
// rule Fingerprint and the sorted view follow: the memo is current exactly
// while it covers all of r's rows, so an Add needs no invalidation and a new
// relation (an upload, a fresh result) starts with none; its lifetime is
// r's, and what it holds is bounded by r's own size (pathBudget). A path is
// keyed by its columns and its type, and must be read-only once built:
// every later caller shares it. Concurrent first users may each build a
// path; the first to publish wins and the others return its path. When
// build fails nothing is published.
func Path[T Sized](r *Relation, cols []int, build func() (T, error)) (T, error) {
	loaded := r.paths.Load()
	if v, ok := lookupPath[T](loaded, r.n, cols); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	limit, weight := pathBudget*r.Bytes(), v.Bytes()
	if weight > limit {
		return v, nil
	}
	mine := &accessPaths{rows: r.n, cols: slices.Clone(cols), path: v}
	for {
		mine.bytes, mine.next = weight, nil
		if loaded != nil && loaded.rows == r.n && loaded.bytes+weight <= limit {
			mine.bytes, mine.next = loaded.bytes+weight, loaded
		}
		if r.paths.CompareAndSwap(loaded, mine) {
			return v, nil
		}
		loaded = r.paths.Load()
		if theirs, ok := lookupPath[T](loaded, r.n, cols); ok {
			return theirs, nil
		}
	}
}

// lookupPath returns the path of type T on cols in memo, if memo is
// current for a relation of rows rows and holds one.
func lookupPath[T Sized](memo *accessPaths, rows int, cols []int) (T, bool) {
	if memo != nil && memo.rows == rows {
		for p := memo; p != nil; p = p.next {
			if v, ok := p.path.(T); ok && slices.Equal(p.cols, cols) {
				return v, true
			}
		}
	}
	var none T
	return none, false
}
