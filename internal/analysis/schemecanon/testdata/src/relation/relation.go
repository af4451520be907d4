// Fixture for schemecanon: mirrors the shape of relquery's
// internal/relation.Scheme (the analyzer matches by package and type
// name, so the fixture package is named relation).
package relation

import "sort"

type Attribute string

type Scheme struct {
	attrs []Attribute
	index []int32
}

func NewScheme(attrs ...Attribute) Scheme {
	s := Scheme{attrs: attrs, index: make([]int32, len(attrs))}
	for i := range attrs {
		s.index[i] = int32(i)
	}
	sort.Slice(s.index, func(i, j int) bool { return attrs[s.index[i]] < attrs[s.index[j]] })
	return s
}

func Ad(a, b Attribute) Scheme {
	s := Scheme{attrs: []Attribute{a, b}} // want `Scheme built ad hoc: .* the position index stays consistent with the attributes`
	s.index = []int32{0, 1}               // want `write to Scheme\.index outside NewScheme`
	s.index[1] = 0                        // want `write to Scheme\.index outside NewScheme`
	s.attrs[0] = b                        // want `write to Scheme\.attrs outside NewScheme`
	s.attrs, s.index = nil, nil           // want `write to Scheme\.attrs outside NewScheme` `write to Scheme\.index outside NewScheme`
	return s
}

func Empty() Scheme {
	// The zero literal is the documented empty scheme.
	return Scheme{}
}

func Canonical(a, b Attribute) Scheme {
	return NewScheme(a, b)
}
