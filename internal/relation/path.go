package relation

import "slices"

// maxPaths bounds the access paths memoized on one relation. A relation is
// a join input under one or two key-column sets in every measured
// workload; a third set replaces both, the Memo rule of dropping
// wholesale at the bound, so a relation joined under many keys pays
// rebuilds, not memory.
const maxPaths = 2

// accessPaths is what Path memoizes on a relation: at most maxPaths
// paths, each built over the relation's first rows rows. Never written
// once published.
type accessPaths struct {
	rows  int
	paths []accessPath
}

type accessPath struct {
	cols []int
	path any
}

// Path returns the access path on the columns cols that build makes from
// r's rows — a join's hash grouping, say — memoized on r under the rule
// Fingerprint and the sorted view follow: the memo is current exactly
// while it covers len(tuples), so an Add needs no invalidation and a new
// relation (an upload, a fresh result) starts with none; its lifetime is
// r's. A path is keyed by its columns and its type, and must be read-only
// once built: every later caller shares it. Concurrent first users may
// each build a path; the first to publish wins and the others return its
// path. When build fails nothing is published.
func Path[T any](r *Relation, cols []int, build func() (T, error)) (T, error) {
	loaded := r.paths.Load()
	if v, ok := lookupPath[T](loaded, len(r.tuples), cols); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	mine := accessPath{cols: slices.Clone(cols), path: v}
	for {
		next := &accessPaths{rows: len(r.tuples)}
		if loaded != nil && loaded.rows == len(r.tuples) && len(loaded.paths) < maxPaths {
			next.paths = loaded.paths
		}
		next.paths = append(slices.Clip(next.paths), mine)
		if r.paths.CompareAndSwap(loaded, next) {
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
func lookupPath[T any](memo *accessPaths, rows int, cols []int) (T, bool) {
	if memo != nil && memo.rows == rows {
		for _, p := range memo.paths {
			if v, ok := p.path.(T); ok && slices.Equal(p.cols, cols) {
				return v, true
			}
		}
	}
	var none T
	return none, false
}
