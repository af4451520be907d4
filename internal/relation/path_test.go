package relation

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"unsafe"
)

// weighed is a test path of n bytes.
type weighed struct{ n int64 }

func (w *weighed) Bytes() int64 { return w.n }

// label is a test path of another type.
type label string

func (label) Bytes() int64 { return 0 }

// TestPathMemo: a path is built once per column list and type while the
// relation does not change; paths stay together up to the weight bound,
// one that would pass it replaces all, and one heavier than the bound
// alone is not kept; an Add, a Clone and a failed build leave nothing
// current behind.
func TestPathMemo(t *testing.T) {
	r := New(MustScheme("A", "B"))
	for i := 0; i < 10; i++ {
		r.MustAdd(TupleOf(fmt.Sprint(i), fmt.Sprint(i%3)))
	}
	budget := pathBudget * r.Bytes()
	built := 0
	path := func(r *Relation, bytes int64, cols ...int) *weighed {
		t.Helper()
		p, err := Path(r, cols, func() (*weighed, error) { built++; return &weighed{bytes}, nil })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := path(r, 100, 0)
	if path(r, 100, 0) != a || built != 1 {
		t.Errorf("a second lookup built again (%d builds)", built)
	}
	b := path(r, 100, 1)
	if path(r, 100, 0) != a || path(r, 100, 1) != b || built != 2 {
		t.Errorf("two column lists do not both stay (%d builds)", built)
	}
	if s, _ := Path(r, []int{0}, func() (label, error) { return "other", nil }); s != "other" {
		t.Error("a path of another type under the same columns was served from the memo")
	}
	if held, _ := PathBytes(r); held != 200 {
		t.Errorf("three paths of 100, 100 and 0 bytes weigh %d together", held)
	}

	// Too heavy on its own: built for its caller, and the others stay.
	if path(r, budget+1, 1, 0); path(r, 0, 1, 0).n != 0 || path(r, 100, 0) != a {
		t.Error("a path heavier than the budget was kept, or displaced the others")
	}
	// Within the budget alone, past it with the others: it replaces all.
	c := path(r, budget-150, 1, 1)
	if path(r, 0, 1, 1) != c || path(r, 100, 0) == a || path(r, 100, 1) == b {
		t.Error("a path past the bound did not replace every earlier one")
	}
	if held, _ := PathBytes(r); held > budget {
		t.Errorf("paths of %d bytes held against a budget of %d", held, budget)
	}

	built = 0
	d := path(r, 1, 0)
	r.MustAdd(TupleOf("new", "row"))
	if path(r, 1, 0) == d || built != 2 {
		t.Error("an Add left the path current")
	}
	if path(r.Clone(), 1, 0); built != 3 {
		t.Error("a copy of the relation came with its path")
	}
	boom := errors.New("boom")
	if _, err := Path(r, []int{1, 0}, func() (*weighed, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("failed build: %v", err)
	}
	if path(r, 1, 1, 0); built != 4 {
		t.Error("a failed build was published")
	}
}

// TestPathConcurrentFirstUse: goroutines asking for the same paths of one
// relation at once each get a path, every later lookup gets a published
// one, and -race proves publishing needs no lock.
func TestPathConcurrentFirstUse(t *testing.T) {
	r := New(MustScheme("A", "B"))
	for i := 0; i < 100; i++ {
		r.MustAdd(TupleOf(fmt.Sprint(i), fmt.Sprint(i%7)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(col int) {
			defer wg.Done()
			p, err := Path(r, []int{col}, func() (*weighed, error) { return &weighed{int64(col)}, nil })
			if err != nil || p.n != int64(col) {
				t.Errorf("column %d: path %v, %v", col, p, err)
			}
		}(g % 2)
	}
	wg.Wait()
	for col := 0; col < 2; col++ {
		if _, err := Path(r, []int{col}, func() (*weighed, error) { return nil, errors.New("built") }); err != nil {
			t.Errorf("column %d: no path published after the concurrent first use", col)
		}
	}
}

// TestProjectionConcurrentFirstUse: eight goroutines projecting one
// relation onto three column lists at once publish one projection per
// list — every goroutine of a list is handed it, and the relation holds
// those three and nothing else.
func TestProjectionConcurrentFirstUse(t *testing.T) {
	r := New(MustScheme("A", "B", "C"))
	for i := 0; i < 300; i++ {
		r.MustAdd(TupleOf(fmt.Sprint(i%7), fmt.Sprint(i%11), fmt.Sprint(i)))
	}
	ontos := []Scheme{MustScheme("A"), MustScheme("B", "A"), MustScheme("C", "B")}
	got := make([]*Relation, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := r.Projection(ontos[g%len(ontos)])
			if err != nil {
				t.Error(err)
			}
			got[g] = p
		}()
	}
	wg.Wait()
	var weight int64
	for i, onto := range ontos {
		p, _ := r.Projection(onto)
		for g := i; g < len(got); g += len(ontos) {
			if got[g] != p {
				t.Errorf("goroutine %d was handed a projection onto %v that is not the published one", g, onto)
			}
		}
		weight += projected{p}.Bytes()
	}
	if held, _ := PathBytes(r); held != weight {
		t.Errorf("the relation holds %d bytes of paths, its three projections weigh %d", held, weight)
	}
}

// TestProjectionIsAFact: a projection of an unchanged relation is built
// once per column list, whatever Scheme value names the columns, holds
// what Project holds under r's own attribute names, and is gone with an
// Add; a column r lacks is an error.
func TestProjectionIsAFact(t *testing.T) {
	r := New(MustScheme("A", "B", "C"))
	for i := 0; i < 30; i++ {
		r.MustAdd(TupleOf(fmt.Sprint(i%4), fmt.Sprint(i%5), fmt.Sprint(i)))
	}
	p, err := r.Projection(MustScheme("B", "A"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := r.Project(MustScheme("B", "A"))
	if !p.Equal(want) || !p.Scheme().SameOrder(want.Scheme()) {
		t.Fatalf("Projection holds %v over %v, Project %v over %v", p.Sorted(), p.Scheme(), want.Sorted(), want.Scheme())
	}
	if again, _ := r.Projection(MustScheme("B", "A")); again != p {
		t.Error("a second projection onto the same columns was built again")
	}
	if other, _ := r.Projection(MustScheme("A", "B")); other == p || !other.Equal(p) {
		t.Error("another column order was served the first one's relation")
	}
	// Names built apart from r's: the projection must not keep them.
	asked := MustScheme(Attribute(fmt.Sprint("C")), Attribute(fmt.Sprint("A")))
	ca, _ := r.Projection(asked)
	if unsafe.StringData(string(ca.Scheme().Attr(0))) != unsafe.StringData(string(r.Scheme().Attr(2))) {
		t.Error("the projection's attribute names are the caller's, not r's")
	}
	r.MustAdd(TupleOf("x", "y", "z"))
	if after, _ := r.Projection(MustScheme("B", "A")); after == p || after.Len() != p.Len()+1 {
		t.Error("an Add left the projection current")
	}
	if _, err := r.Projection(MustScheme("Z")); err == nil {
		t.Error("a projection onto a column r lacks succeeded")
	}
}

// TestProjectionsAreBounded: a stream of projections of one relation onto
// every column list — each subset in two orders, ∅ and all columns
// included — never pins more than the budget, and each projection served
// is Project's.
func TestProjectionsAreBounded(t *testing.T) {
	attrs := []Attribute{"A", "B", "C", "D", "E", "F"}
	r := New(MustScheme(attrs...))
	for i := 0; i < 200; i++ {
		r.MustAdd(TupleOf(fmt.Sprint(i%2), fmt.Sprint(i%3), fmt.Sprint(i%5), fmt.Sprint(i%7), fmt.Sprint(i%11), fmt.Sprint(i)))
	}
	replaced := false
	for subset := 0; subset < 1<<len(attrs); subset++ {
		var cols []Attribute
		for i, a := range attrs {
			if subset&(1<<i) != 0 {
				cols = append(cols, a)
			}
		}
		for _, order := range [][]Attribute{cols, reversed(cols)} {
			before, _ := PathBytes(r)
			onto := MustScheme(order...)
			p, err := r.Projection(onto)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := r.Project(onto); !p.Equal(want) || !p.Scheme().SameOrder(onto) {
				t.Fatalf("projection onto %v holds %d rows over %v, Project %d", onto, p.Len(), p.Scheme(), want.Len())
			}
			held, budget := PathBytes(r)
			if held > budget {
				t.Fatalf("after projecting onto %v the paths weigh %d, budget %d", onto, held, budget)
			}
			replaced = replaced || held < before
		}
	}
	if !replaced {
		t.Error("127 column lists fit the budget together: the bound was never reached")
	}
}

func reversed(s []Attribute) []Attribute {
	out := make([]Attribute, len(s))
	for i, a := range s {
		out[len(s)-1-i] = a
	}
	return out
}
