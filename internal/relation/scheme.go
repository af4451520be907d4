// Package relation implements the relational model substrate used by the
// rest of the library: attributes, relation schemes, tuples, and finite
// relations with set semantics, together with the two relational-algebra
// operations the paper studies (projection and natural join), set
// operations, deterministic rendering, and a text serialization format.
//
// The model follows Cosmadakis (1983), Section 2.1: a relation scheme is a
// finite set of attributes; an X-tuple is a mapping from the scheme X into
// attribute values; a relation over X is a finite set of X-tuples. Domains
// of distinct attributes are conceptually disjoint — the same symbol
// appearing in different columns denotes different values. This package
// realizes that convention structurally: values are only ever compared
// within a column, never across columns.
package relation

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Attribute is the name of a column of a relation, e.g. "X1" or "Y{1,2}".
type Attribute string

// Value is a single attribute value, e.g. "0", "1", "e", "x", "a", "b".
// Values are uninterpreted symbols: the engine only ever tests them for
// equality within one column.
type Value string

// Scheme is a relation scheme: an ordered sequence of distinct attributes.
// The paper treats schemes as sets written down as attribute strings; Scheme
// keeps the writing order (so that the paper's tables render column-for-
// column) but all set-level operations (Equal, ContainsAll, Union, ...)
// treat a Scheme as the set of its attributes.
//
// A Scheme is immutable after construction and safe for concurrent reads.
// The zero Scheme is the empty scheme.
type Scheme struct {
	attrs []Attribute
	// index holds the positions of attrs in ascending attribute order: Pos
	// is a binary search over it, and two schemes' indexes walk in step for
	// the set comparisons.
	index []int32
}

// NewScheme builds a scheme from the given attributes, preserving order.
// It reports an error if an attribute is empty or repeats: the first
// position, in writing order, where either happens.
func NewScheme(attrs ...Attribute) (Scheme, error) {
	s := Scheme{
		attrs: make([]Attribute, len(attrs)),
		index: make([]int32, len(attrs)),
	}
	copy(s.attrs, attrs)
	for i := range s.index {
		s.index[i] = int32(i)
	}
	slices.SortFunc(s.index, func(i, j int32) int {
		return cmp.Or(strings.Compare(string(s.attrs[i]), string(s.attrs[j])), cmp.Compare(i, j))
	})
	// Equal attributes are adjacent in the index, in writing order: the
	// first pair of a run is where the attribute repeats first.
	empty, dup, of := slices.Index(s.attrs, ""), len(attrs), 0
	for k := 1; k < len(s.index); k++ {
		if i, j := s.index[k-1], s.index[k]; s.attrs[i] == s.attrs[j] && int(j) < dup {
			dup, of = int(j), int(i)
		}
	}
	if empty >= 0 && empty < dup {
		return Scheme{}, fmt.Errorf("relation: empty attribute name at position %d", empty)
	}
	if dup < len(attrs) {
		return Scheme{}, fmt.Errorf("relation: duplicate attribute %q at positions %d and %d", s.attrs[dup], of, dup)
	}
	return s, nil
}

// MustScheme is like NewScheme but panics on error. It is intended for
// statically known schemes in tests, examples and generated code.
func MustScheme(attrs ...Attribute) Scheme {
	s, err := NewScheme(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// SchemeOf parses a scheme from a whitespace-separated attribute list,
// e.g. "F1 F2 X1 S".
func SchemeOf(spec string) (Scheme, error) {
	fields := strings.Fields(spec)
	attrs := make([]Attribute, len(fields))
	for i, f := range fields {
		attrs[i] = Attribute(f)
	}
	return NewScheme(attrs...)
}

// Len returns the number of attributes in the scheme.
func (s Scheme) Len() int { return len(s.attrs) }

// Attr returns the attribute at position i.
func (s Scheme) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attributes in scheme order.
func (s Scheme) Attrs() []Attribute {
	out := make([]Attribute, len(s.attrs))
	copy(out, s.attrs)
	return out
}

// Pos returns the position of attribute a in the scheme and whether it is
// present.
func (s Scheme) Pos(a Attribute) (int, bool) {
	k := s.search(a)
	if k < len(s.index) && s.attrs[s.index[k]] == a {
		return int(s.index[k]), true
	}
	return 0, false
}

// search returns the first place in the index whose attribute is not
// below a.
func (s Scheme) search(a Attribute) int {
	lo, hi := 0, len(s.index)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.attrs[s.index[m]] < a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// sorted returns the k-th attribute in ascending order.
func (s Scheme) sorted(k int) Attribute { return s.attrs[s.index[k]] }

// Has reports whether attribute a belongs to the scheme.
func (s Scheme) Has(a Attribute) bool {
	_, ok := s.Pos(a)
	return ok
}

// Equal reports whether s and t contain exactly the same attributes,
// regardless of order (schemes are sets).
func (s Scheme) Equal(t Scheme) bool {
	if len(s.attrs) != len(t.attrs) {
		return false
	}
	for k := range s.index {
		if s.sorted(k) != t.sorted(k) {
			return false
		}
	}
	return true
}

// SameOrder reports whether s and t list the same attributes in the same
// order (column-for-column identity).
func (s Scheme) SameOrder(t Scheme) bool {
	return slices.Equal(s.attrs, t.attrs)
}

// ContainsAll reports whether every attribute of t belongs to s (t ⊆ s as
// sets).
func (s Scheme) ContainsAll(t Scheme) bool {
	if len(t.attrs) > len(s.attrs) {
		return false
	}
	k := 0
	for m := range t.index {
		a := t.sorted(m)
		for k < len(s.index) && s.sorted(k) < a {
			k++
		}
		if k == len(s.index) || s.sorted(k) != a {
			return false
		}
	}
	return true
}

// Disjoint reports whether s and t share no attribute.
func (s Scheme) Disjoint(t Scheme) bool {
	for k, m := 0, 0; k < len(s.index) && m < len(t.index); {
		switch a, b := s.sorted(k), t.sorted(m); {
		case a == b:
			return false
		case a < b:
			k++
		default:
			m++
		}
	}
	return true
}

// Union returns the scheme containing the attributes of s followed by the
// attributes of t that are not already in s. This is the natural-join
// result scheme ordering used throughout the library.
func (s Scheme) Union(t Scheme) Scheme {
	attrs := make([]Attribute, 0, len(s.attrs)+len(t.attrs))
	attrs = append(attrs, s.attrs...)
	for _, a := range t.attrs {
		if !s.Has(a) {
			attrs = append(attrs, a)
		}
	}
	return MustScheme(attrs...)
}

// Intersect returns the attributes common to s and t, in s's order.
func (s Scheme) Intersect(t Scheme) Scheme {
	var attrs []Attribute
	for _, a := range s.attrs {
		if t.Has(a) {
			attrs = append(attrs, a)
		}
	}
	return MustScheme(attrs...)
}

// Minus returns the attributes of s that are not in t, in s's order.
func (s Scheme) Minus(t Scheme) Scheme {
	var attrs []Attribute
	for _, a := range s.attrs {
		if !t.Has(a) {
			attrs = append(attrs, a)
		}
	}
	return MustScheme(attrs...)
}

// Sorted returns a copy of the scheme with attributes in lexicographic
// order. Useful for canonical printing of set-valued schemes.
func (s Scheme) Sorted() Scheme {
	attrs := make([]Attribute, len(s.index))
	for k := range attrs {
		attrs[k] = s.sorted(k)
	}
	return MustScheme(attrs...)
}

// String renders the scheme as a space-separated attribute list, matching
// the paper's convention of writing schemes as attribute strings.
func (s Scheme) String() string {
	n := max(len(s.attrs)-1, 0)
	for _, a := range s.attrs {
		n += len(a)
	}
	var b strings.Builder
	b.Grow(n)
	s.WriteText(&b)
	return b.String()
}

// WriteText writes the scheme as String renders it straight into w, with
// no string of it built: a response header or a block's scheme line.
func (s Scheme) WriteText(w io.StringWriter) {
	for i, a := range s.attrs {
		if i > 0 {
			_, _ = w.WriteString(" ")
		}
		_, _ = w.WriteString(string(a))
	}
}

// projection describes how to map tuples over a source scheme onto a target
// scheme: target position i reads source position idx[i].
type projection struct {
	target Scheme
	idx    []int
}

// projectionOnto computes the column mapping for projecting src onto onto.
// Every attribute of onto must occur in src.
func projectionOnto(src, onto Scheme) (projection, error) {
	idx, err := positionsOf(src, onto, make([]int, 0, onto.Len()))
	if err != nil {
		return projection{}, err
	}
	return projection{target: onto, idx: idx}, nil
}

// positionsOf appends to cols the position in src of each attribute of
// onto, in onto's order. Every attribute of onto must occur in src.
func positionsOf(src, onto Scheme, cols []int) ([]int, error) {
	for i := 0; i < onto.Len(); i++ {
		a := onto.Attr(i)
		j, ok := src.Pos(a)
		if !ok {
			return nil, fmt.Errorf("relation: cannot project: attribute %q not in source scheme %v", a, src)
		}
		cols = append(cols, j)
	}
	return cols, nil
}

// apply projects tuple t (over the source scheme) onto the target scheme.
func (p projection) apply(t Tuple) Tuple {
	out := make(Tuple, len(p.idx))
	for i, j := range p.idx {
		out[i] = t[j]
	}
	return out
}
