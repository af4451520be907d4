package relation

import (
	"strings"
	"testing"
)

func rel(t *testing.T, scheme string, rows ...string) *Relation {
	t.Helper()
	s, err := SchemeOf(scheme)
	if err != nil {
		t.Fatal(err)
	}
	r := New(s)
	for _, row := range rows {
		if _, err := r.Add(TupleOf(strings.Fields(row)...)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestAddSetSemantics(t *testing.T) {
	r := rel(t, "A B")
	if added := r.MustAdd(TupleOf("1", "2")); !added {
		t.Error("first Add = false")
	}
	if added := r.MustAdd(TupleOf("1", "2")); added {
		t.Error("duplicate Add = true")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if _, err := r.Add(TupleOf("1")); err == nil {
		t.Error("arity error not reported")
	}
}

func TestTupleKeyNoCollision(t *testing.T) {
	// ("ab","c") and ("a","bc") must not collide under Key encoding.
	a := TupleOf("ab", "c")
	b := TupleOf("a", "bc")
	if a.key() == b.key() {
		t.Fatal("key collision")
	}
	r := rel(t, "A B")
	r.MustAdd(a)
	if r.Contains(b) {
		t.Fatal("Contains confused distinct tuples")
	}
}

func TestContainsNamedAnyOrder(t *testing.T) {
	r := rel(t, "A B C", "1 2 3")
	nt, err := NewNamedTuple(MustScheme("C", "A", "B"), TupleOf("3", "1", "2"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.ContainsNamed(nt) {
		t.Error("ContainsNamed false for reordered tuple")
	}
	wrong, _ := NewNamedTuple(MustScheme("C", "A", "B"), TupleOf("1", "2", "3"))
	if r.ContainsNamed(wrong) {
		t.Error("ContainsNamed true for wrong tuple")
	}
	other, _ := NewNamedTuple(MustScheme("A", "B"), TupleOf("1", "2"))
	if r.ContainsNamed(other) {
		t.Error("ContainsNamed true for smaller scheme")
	}
}

func TestProject(t *testing.T) {
	r := rel(t, "A B C",
		"1 x p",
		"1 y p",
		"2 x q",
	)
	p, err := r.Project(MustScheme("A", "C"))
	if err != nil {
		t.Fatal(err)
	}
	want := rel(t, "A C", "1 p", "2 q")
	if !p.Equal(want) {
		t.Errorf("Project = %v, want %v", p.Sorted(), want.Sorted())
	}
	// Projection collapses duplicates: 3 rows -> 2 rows.
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
	if _, err := r.Project(MustScheme("Z")); err == nil {
		t.Error("projection onto foreign attribute succeeded")
	}
}

func TestProjectOntoEmptyScheme(t *testing.T) {
	r := rel(t, "A B", "1 2", "3 4")
	p, err := r.Project(MustScheme())
	if err != nil {
		t.Fatal(err)
	}
	// π_∅ of a nonempty relation is one empty tuple.
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
	empty := New(MustScheme("A", "B"))
	p2, err := empty.Project(MustScheme())
	if err != nil {
		t.Fatal(err)
	}
	if p2.Len() != 0 {
		t.Errorf("π_∅(∅) Len = %d, want 0", p2.Len())
	}
}

func TestSetOperations(t *testing.T) {
	r := rel(t, "A B", "1 1", "2 2")
	o := rel(t, "B A", "2 2", "3 3") // reordered scheme on purpose

	u, err := r.Union(o)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Equal(rel(t, "A B", "1 1", "2 2", "3 3")) {
		t.Errorf("Union = %v", u.Sorted())
	}
	i, err := r.Intersect(o)
	if err != nil {
		t.Fatal(err)
	}
	if !i.Equal(rel(t, "A B", "2 2")) {
		t.Errorf("Intersect = %v", i.Sorted())
	}
	d, err := r.Difference(o)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(rel(t, "A B", "1 1")) {
		t.Errorf("Difference = %v", d.Sorted())
	}
	sub, err := rel(t, "A B", "2 2").SubsetOf(r)
	if err != nil || !sub {
		t.Errorf("SubsetOf = %v, %v", sub, err)
	}
	sub, err = r.SubsetOf(o)
	if err != nil || sub {
		t.Errorf("SubsetOf = %v, %v (want false)", sub, err)
	}
	if _, err := r.Union(rel(t, "A C", "1 1")); err == nil {
		t.Error("Union across different schemes succeeded")
	}
}

func TestEqualAcrossColumnOrder(t *testing.T) {
	r := rel(t, "A B", "1 2")
	o := rel(t, "B A", "2 1")
	if !r.Equal(o) {
		t.Error("Equal should hold across column orders")
	}
	if r.Equal(rel(t, "B A", "1 2")) {
		t.Error("Equal true for different tuples")
	}
	if r.Equal(rel(t, "A C", "1 2")) {
		t.Error("Equal true for different schemes")
	}
}

func TestJoinSharedAttributes(t *testing.T) {
	r := rel(t, "A B",
		"1 x",
		"2 y",
	)
	o := rel(t, "B C",
		"x p",
		"x q",
		"z r",
	)
	j, err := r.Join(o)
	if err != nil {
		t.Fatal(err)
	}
	want := rel(t, "A B C", "1 x p", "1 x q")
	if !j.Equal(want) {
		t.Errorf("Join = %v, want %v", j.Sorted(), want.Sorted())
	}
	if got := j.Scheme().String(); got != "A B C" {
		t.Errorf("scheme = %q", got)
	}
}

func TestJoinDisjointSchemesIsCartesianProduct(t *testing.T) {
	r := rel(t, "A", "1", "2")
	o := rel(t, "B", "x", "y", "z")
	j, err := r.Join(o)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 6 {
		t.Errorf("Len = %d, want 6", j.Len())
	}
}

func TestJoinSameScheme(t *testing.T) {
	r := rel(t, "A B", "1 1", "2 2")
	o := rel(t, "A B", "2 2", "3 3")
	j, err := r.Join(o)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Equal(rel(t, "A B", "2 2")) {
		t.Errorf("Join over same scheme = %v, want intersection", j.Sorted())
	}
}

func TestJoinWithEmpty(t *testing.T) {
	r := rel(t, "A B", "1 1")
	empty := New(MustScheme("B", "C"))
	j, err := r.Join(empty)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Errorf("Len = %d, want 0", j.Len())
	}
	if got := j.Scheme().String(); got != "A B C" {
		t.Errorf("scheme = %q", got)
	}
}

func TestJoinDefinitionDirect(t *testing.T) {
	// Check against the definitional form: t in r*o iff t[X1] in r and
	// t[X2] in o.
	r := rel(t, "A B", "1 x", "2 y", "2 x")
	o := rel(t, "B C", "x p", "y q")
	j, err := r.Join(o)
	if err != nil {
		t.Fatal(err)
	}
	j.Each(func(tp Tuple) bool {
		nt := NamedTuple{Scheme: j.Scheme(), Vals: tp}
		left, err := nt.Project(r.Scheme())
		if err != nil {
			t.Fatal(err)
		}
		right, err := nt.Project(o.Scheme())
		if err != nil {
			t.Fatal(err)
		}
		if !r.ContainsNamed(left) || !o.ContainsNamed(right) {
			t.Errorf("join tuple %v has missing projection", tp)
		}
		return true
	})
	if j.Len() != 3 {
		t.Errorf("Len = %d, want 3", j.Len())
	}
}

func TestActiveDomain(t *testing.T) {
	r := rel(t, "A B", "1 x", "2 x", "1 y")
	dom := r.ActiveDomain()
	if got := len(dom["A"]); got != 2 {
		t.Errorf("dom[A] = %v", dom["A"])
	}
	if got := len(dom["B"]); got != 2 {
		t.Errorf("dom[B] = %v", dom["B"])
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rel(t, "A", "1")
	c := r.Clone()
	c.MustAdd(TupleOf("2"))
	if r.Len() != 1 || c.Len() != 2 {
		t.Errorf("clone not independent: r=%d c=%d", r.Len(), c.Len())
	}
}

func TestEachEarlyStop(t *testing.T) {
	r := rel(t, "A", "1", "2", "3")
	count := 0
	r.Each(func(Tuple) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("Each visited %d tuples, want 2", count)
	}
}

func TestNamedTupleJoinsWith(t *testing.T) {
	a := NamedTuple{Scheme: MustScheme("A", "B"), Vals: TupleOf("1", "x")}
	b := NamedTuple{Scheme: MustScheme("B", "C"), Vals: TupleOf("x", "p")}
	c := NamedTuple{Scheme: MustScheme("B", "C"), Vals: TupleOf("y", "p")}
	if !a.JoinsWith(b) {
		t.Error("compatible tuples reported incompatible")
	}
	if a.JoinsWith(c) {
		t.Error("incompatible tuples reported compatible")
	}
	d := NamedTuple{Scheme: MustScheme("D"), Vals: TupleOf("z")}
	if !a.JoinsWith(d) {
		t.Error("disjoint tuples should always join")
	}
}
