package relation

import (
	"fmt"
	"strings"
	"testing"
)

func TestNewSchemeRejectsDuplicates(t *testing.T) {
	// The message names the first position, in writing order, where an
	// attribute is empty or repeats, and a repeat's first occurrence.
	for _, c := range []struct {
		attrs []Attribute
		want  string
	}{
		{[]Attribute{"A", "B", "A"}, `relation: duplicate attribute "A" at positions 0 and 2`},
		{[]Attribute{"A", ""}, `relation: empty attribute name at position 1`},
		{[]Attribute{"", ""}, `relation: empty attribute name at position 0`},
		{[]Attribute{"A", "A", ""}, `relation: duplicate attribute "A" at positions 0 and 1`},
		{[]Attribute{"A", "", "A"}, `relation: empty attribute name at position 1`},
		// Several repeats: the earliest repeated position wins, not the
		// attribute that sorts first, nor its last occurrence.
		{[]Attribute{"Z", "B", "A", "B", "Z", "A"}, `relation: duplicate attribute "B" at positions 1 and 3`},
		{[]Attribute{"C", "A", "C", "A", "C"}, `relation: duplicate attribute "C" at positions 0 and 2`},
		{[]Attribute{"Y", "X", "X", "Y"}, `relation: duplicate attribute "X" at positions 1 and 2`},
	} {
		_, err := NewScheme(c.attrs...)
		if err == nil || err.Error() != c.want {
			t.Errorf("NewScheme(%q) = %v, want %s", c.attrs, err, c.want)
		}
	}
}

// FuzzScheme checks the scheme's position index against a map from
// attribute to position: a fuzzed input is split into two attribute lists,
// one per byte of each, so that they share attributes and repeat them.
func FuzzScheme(f *testing.F) {
	f.Add("ABC", "BCD", "A")
	f.Add("", "A", "")
	f.Add("ABA", "AB", "B")
	f.Add("DCBA", "ABCD", "E")
	f.Add("XYZW", "VU", "ZQ")
	f.Fuzz(func(t *testing.T, x, y, probe string) {
		parse := func(text string) ([]Attribute, map[Attribute]int, error) {
			attrs := make([]Attribute, len(text))
			ref := map[Attribute]int{}
			for i := 0; i < len(text); i++ {
				a := Attribute(text[i : i+1])
				attrs[i] = a
				if text[i] == ' ' {
					a, attrs[i] = "", "" // an empty name
				}
				if j, dup := ref[a]; a == "" || dup {
					if a == "" {
						return attrs, nil, fmt.Errorf("relation: empty attribute name at position %d", i)
					}
					return attrs, nil, fmt.Errorf("relation: duplicate attribute %q at positions %d and %d", a, j, i)
				}
				ref[a] = i
			}
			return attrs, ref, nil
		}
		ax, rx, errx := parse(x)
		ay, ry, erry := parse(y)
		sx, err := NewScheme(ax...)
		if fmt.Sprint(err) != fmt.Sprint(errx) {
			t.Fatalf("NewScheme(%q) = %v, want %v", ax, err, errx)
		}
		sy, err := NewScheme(ay...)
		if fmt.Sprint(err) != fmt.Sprint(erry) {
			t.Fatalf("NewScheme(%q) = %v, want %v", ay, err, erry)
		}
		if errx != nil || erry != nil {
			return
		}
		probes := append(append([]Attribute{""}, ax...), ay...)
		for i := 0; i < len(probe); i++ {
			probes = append(probes, Attribute(probe[i:i+1]))
		}
		for _, a := range probes {
			want, in := rx[a]
			if got, ok := sx.Pos(a); ok != in || ok && got != want {
				t.Fatalf("%q.Pos(%q) = %d, %v; want %d, %v", x, a, got, ok, want, in)
			}
			if sx.Has(a) != in {
				t.Fatalf("%q.Has(%q) = %v", x, a, !in)
			}
		}
		subset := func(small, large map[Attribute]int) bool {
			for a := range small {
				if _, ok := large[a]; !ok {
					return false
				}
			}
			return true
		}
		if got, want := sx.Equal(sy), len(rx) == len(ry) && subset(rx, ry); got != want {
			t.Fatalf("%q.Equal(%q) = %v", x, y, got)
		}
		if got, want := sx.ContainsAll(sy), subset(ry, rx); got != want {
			t.Fatalf("%q.ContainsAll(%q) = %v", x, y, got)
		}
		var union, inter, minus []Attribute
		union = append(union, ax...)
		for _, a := range ay {
			if _, ok := rx[a]; !ok {
				union = append(union, a)
			}
		}
		for _, a := range ax {
			if _, ok := ry[a]; ok {
				inter = append(inter, a)
			} else {
				minus = append(minus, a)
			}
		}
		if got, want := sx.Disjoint(sy), len(inter) == 0; got != want {
			t.Fatalf("%q.Disjoint(%q) = %v", x, y, got)
		}
		for _, c := range []struct {
			op   string
			got  Scheme
			want []Attribute
		}{{"Union", sx.Union(sy), union}, {"Intersect", sx.Intersect(sy), inter}, {"Minus", sx.Minus(sy), minus}} {
			if !c.got.SameOrder(MustScheme(c.want...)) {
				t.Fatalf("%q.%s(%q) = %v, want %q", x, c.op, y, c.got, c.want)
			}
			for i, a := range c.want {
				if p, ok := c.got.Pos(a); !ok || p != i {
					t.Fatalf("%q.%s(%q).Pos(%q) = %d, %v; want %d", x, c.op, y, a, p, ok, i)
				}
			}
		}
	})
}

func TestSchemeOf(t *testing.T) {
	s, err := SchemeOf("  F1 F2   X1 S ")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "F1 F2 X1 S" {
		t.Fatalf("String() = %q", got)
	}
	if s.Len() != 4 {
		t.Fatalf("Len() = %d", s.Len())
	}
	if i, ok := s.Pos("X1"); !ok || i != 2 {
		t.Fatalf("Pos(X1) = %d, %v", i, ok)
	}
	if s.Has("Z") {
		t.Fatal("Has(Z) = true")
	}
}

func TestSchemeSetSemantics(t *testing.T) {
	ab := MustScheme("A", "B")
	ba := MustScheme("B", "A")
	ac := MustScheme("A", "C")

	if !ab.Equal(ba) {
		t.Error("Equal should ignore order")
	}
	if ab.SameOrder(ba) {
		t.Error("SameOrder should respect order")
	}
	if ab.Equal(ac) {
		t.Error("distinct attribute sets reported equal")
	}
	if !ab.ContainsAll(MustScheme("B")) {
		t.Error("ContainsAll(B) = false")
	}
	if ab.ContainsAll(ac) {
		t.Error("ContainsAll(AC) = true")
	}
	if ab.Disjoint(ba) {
		t.Error("Disjoint with shared attrs")
	}
	if !ab.Disjoint(MustScheme("C", "D")) {
		t.Error("Disjoint(CD) = false")
	}
}

func TestSchemeAlgebra(t *testing.T) {
	ab := MustScheme("A", "B")
	bc := MustScheme("B", "C")

	if got := ab.Union(bc).String(); got != "A B C" {
		t.Errorf("Union = %q, want \"A B C\"", got)
	}
	if got := ab.Intersect(bc).String(); got != "B" {
		t.Errorf("Intersect = %q, want \"B\"", got)
	}
	if got := ab.Minus(bc).String(); got != "A" {
		t.Errorf("Minus = %q, want \"A\"", got)
	}
	if got := bc.Minus(ab).String(); got != "C" {
		t.Errorf("Minus = %q, want \"C\"", got)
	}
	empty := MustScheme()
	if got := empty.Union(ab).String(); got != "A B" {
		t.Errorf("empty.Union = %q", got)
	}
	if n := ab.Intersect(MustScheme("C")).Len(); n != 0 {
		t.Errorf("disjoint Intersect Len = %d", n)
	}
}

func TestSchemeSorted(t *testing.T) {
	s := MustScheme("X2", "F1", "A")
	if got := s.Sorted().String(); got != "A F1 X2" {
		t.Errorf("Sorted = %q", got)
	}
	// Original unchanged (immutability).
	if got := s.String(); got != "X2 F1 A" {
		t.Errorf("original mutated: %q", got)
	}
}

func TestProjectionOntoMissingAttr(t *testing.T) {
	src := MustScheme("A", "B")
	_, err := projectionOnto(src, MustScheme("A", "Z"))
	if err == nil || !strings.Contains(err.Error(), "Z") {
		t.Fatalf("err = %v, want mention of Z", err)
	}
}

func TestSchemeAttrsIsCopy(t *testing.T) {
	s := MustScheme("A", "B")
	attrs := s.Attrs()
	attrs[0] = "Z"
	if s.Attr(0) != "A" {
		t.Fatal("Attrs() exposed internal storage")
	}
}
