// Fixture for tuplealias: consumers of the real relation package.
package a

import "relquery/internal/relation"

func Mutate(t relation.Tuple) {
	t[0] = "x" // want `writes into a relation\.Tuple received across a package boundary`
}

func MutateRows(rows []relation.Tuple) {
	rows[0] = relation.TupleOf("x") // want `writes into a row slice received across a package boundary`
	rows[1][0] = "y"                // want `writes into a relation\.Tuple received across a package boundary`
}

func CloneFirst(t relation.Tuple) relation.Tuple {
	t = t.Clone()
	t[0] = "x"
	return t
}

func FromAccessor(r *relation.Relation) {
	tu := r.Tuple(0)
	tu[0] = "x" // want `writes into a relation\.Tuple received across a package boundary`
}

func FromEach(r *relation.Relation) {
	r.Each(func(t relation.Tuple) bool {
		t[0] = "x" // want `writes into a relation\.Tuple received across a package boundary`
		return true
	})
}

func Owned() relation.Tuple {
	t := make(relation.Tuple, 2)
	t[0] = "x"
	return t
}

var saved relation.Tuple

func Retain(t relation.Tuple) {
	saved = t // want `retains a borrowed relation\.Tuple in a package-level variable`
}

type holder struct {
	row relation.Tuple
}

func (h *holder) Retain(t relation.Tuple) {
	h.row = t // want `retains a borrowed relation\.Tuple in a struct field`
}

func (h *holder) RetainClone(t relation.Tuple) {
	t = t.Clone()
	h.row = t
}

func CopyInto(t relation.Tuple) {
	copy(t, relation.TupleOf("x")) // want `copy into a relation\.Tuple received across a package boundary`
}

func Append(t relation.Tuple) relation.Tuple {
	return append(t, "x") // want `append to a relation\.Tuple received across a package boundary`
}

// Collected: the n-ary builder method takes its source rows and copies out
// of them, so a tree join never holds a writable row of the output — and a
// row it read through Relation.Tuple to hand over is still borrowed.
func Collected(b *relation.Builder, r, s *relation.Relation) {
	row := r.Tuple(0)
	b.Collect([]relation.Tuple{row, s.Tuple(0)}, []relation.Ref{{Src: 0, Col: 0}, {Src: 1, Col: 1}})
	row[0] = "x" // want `writes into a relation\.Tuple received across a package boundary`
}
