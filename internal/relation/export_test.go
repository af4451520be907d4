package relation

// AlignTo exposes alignTo, whose result no exported method returns, to the
// producer table of the view-safety test. (A function, not a method: the
// lint loader's export data cannot add a method to a type that package
// join's export data has already declared.)
func AlignTo(r *Relation, target Scheme) (*Relation, error) { return r.alignTo(target) }

// PathBytes reports what r's access paths weigh together now, and the most
// they may weigh.
func PathBytes(r *Relation) (held, budget int64) {
	if memo := r.paths.Load(); memo != nil && memo.rows == r.n {
		held = memo.bytes
	}
	return held, pathBudget * r.Bytes()
}

// AppendTo appends v to the borrowed row t and drops the result: what a
// careless reader might do, and what tuplealias would flag outside this
// package. With cap(t) == len(t) it copies t; otherwise it writes the
// value after t in t's backing array.
func AppendTo(t Tuple, v Value) { _ = append(t, v) }
