package relation

import (
	"fmt"
	"strconv"
	"strings"
)

// Tuple is a row of attribute values. A Tuple is positional: its meaning is
// given by the Scheme it is paired with (vals[i] is the value of scheme
// attribute i). Pairing a tuple with a scheme of a different length is an
// arity error that the Relation methods report.
//
// A Tuple a Relation hands out (Tuple, Each) is a view into a backing
// array the relation owns, shared with every other reader: it must not be
// written. Its cap equals its len, so an append copies it instead of
// reaching the next row. TupleOf, Clone and Relation.Tuples return tuples
// the caller owns.
type Tuple []Value

// TupleOf builds a tuple from plain strings, in scheme order.
func TupleOf(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Value(v)
	}
	return t
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports positional equality of two tuples.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Less orders tuples lexicographically by value; shorter tuples order
// before longer ones when they share a prefix. It gives relations a
// deterministic rendering order.
func (t Tuple) Less(u Tuple) bool { return t.Compare(u) < 0 }

// Compare is Less as a three-way comparison, for slices.SortFunc.
func (t Tuple) Compare(u Tuple) int {
	for i := 0; i < len(t) && i < len(u); i++ {
		if c := strings.Compare(string(t[i]), string(u[i])); c != 0 {
			return c
		}
	}
	return len(t) - len(u)
}

// key encodes the tuple as a string usable as a map key. The encoding is
// length-prefixed so that values containing arbitrary bytes cannot collide.
// Nothing in the engine uses it — tuples are hashed (Tuple.Hash), not
// printed; it remains for the reference oracle Relation.Join and the
// fingerprint regression test, which need an independent encoding.
func (t Tuple) key() string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(string(v))
	}
	return b.String()
}

// String renders the tuple as a parenthesized value list, e.g. "(1, e, a)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(v))
	}
	b.WriteByte(')')
	return b.String()
}

// NamedTuple is a tuple together with the scheme that names its columns.
// It is the explicit form of the paper's "X-tuple": a mapping from the
// attributes of X to values.
type NamedTuple struct {
	Scheme Scheme
	Vals   Tuple
}

// NewNamedTuple pairs a scheme with values, checking arity.
func NewNamedTuple(s Scheme, vals Tuple) (NamedTuple, error) {
	if len(vals) != s.Len() {
		return NamedTuple{}, fmt.Errorf("relation: tuple arity %d does not match scheme %v (arity %d)", len(vals), s, s.Len())
	}
	return NamedTuple{Scheme: s, Vals: vals}, nil
}

// Get returns the value of attribute a, and whether a is in the scheme.
func (nt NamedTuple) Get(a Attribute) (Value, bool) {
	i, ok := nt.Scheme.Pos(a)
	if !ok {
		return "", false
	}
	return nt.Vals[i], true
}

// Project restricts the named tuple to the attributes of onto (the paper's
// t[Y] for Y ⊆ X).
func (nt NamedTuple) Project(onto Scheme) (NamedTuple, error) {
	p, err := projectionOnto(nt.Scheme, onto)
	if err != nil {
		return NamedTuple{}, err
	}
	return NamedTuple{Scheme: onto, Vals: p.apply(nt.Vals)}, nil
}

// JoinsWith reports whether nt and other agree on every attribute their
// schemes share — the compatibility condition of the natural join.
func (nt NamedTuple) JoinsWith(other NamedTuple) bool {
	small, large := nt, other
	if large.Scheme.Len() < small.Scheme.Len() {
		small, large = large, small
	}
	for i := 0; i < small.Scheme.Len(); i++ {
		a := small.Scheme.Attr(i)
		if j, ok := large.Scheme.Pos(a); ok && large.Vals[j] != small.Vals[i] {
			return false
		}
	}
	return true
}

// String renders the named tuple as "<A=1 B=e>".
func (nt NamedTuple) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i := 0; i < nt.Scheme.Len(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", nt.Scheme.Attr(i), nt.Vals[i])
	}
	b.WriteByte('>')
	return b.String()
}
