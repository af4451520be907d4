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
//   - R_G at relbench scale, 50 rows × 37 columns, weighs 30.8 KB. The
//     m+1 = 8 projections φ_G takes of it hold 0.91–0.95 of its values;
//     with their own row headers and dedup indexes they weigh 1.18–1.22
//     times R_G (five gadgets). The tries on them are paths of the
//     projections, not of R_G: 4 B per projected row.
//   - A 1 025-row leg of two columns weighs 57.4 KB, and one edge table on
//     it with every key distinct — its row chain, group arrays and index,
//     growth slack included — weighs 1.12 times that; two key sets, 2.24.
//
// Four holds both at once (3.4) on one relation.
const pathBudget = 4

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
// while it covers len(tuples), so an Add needs no invalidation and a new
// relation (an upload, a fresh result) starts with none; its lifetime is
// r's, and what it holds is bounded by r's own size (pathBudget). A path is
// keyed by its columns and its type, and must be read-only once built:
// every later caller shares it. Concurrent first users may each build a
// path; the first to publish wins and the others return its path. When
// build fails nothing is published.
func Path[T Sized](r *Relation, cols []int, build func() (T, error)) (T, error) {
	loaded := r.paths.Load()
	if v, ok := lookupPath[T](loaded, len(r.tuples), cols); ok {
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
	mine := &accessPaths{rows: len(r.tuples), cols: slices.Clone(cols), path: v}
	for {
		mine.bytes, mine.next = weight, nil
		if loaded != nil && loaded.rows == len(r.tuples) && loaded.bytes+weight <= limit {
			mine.bytes, mine.next = loaded.bytes+weight, loaded
		}
		if r.paths.CompareAndSwap(loaded, mine) {
			return v, nil
		}
		loaded = r.paths.Load()
		if theirs, ok := lookupPath[T](loaded, len(r.tuples), cols); ok {
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
