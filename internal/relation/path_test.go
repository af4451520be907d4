package relation

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestPathMemo: a path is built once per column list and type while the
// relation does not change; a relation holds two, and a third replaces
// both; an Add, a Clone and a failed build leave nothing current behind.
func TestPathMemo(t *testing.T) {
	r := New(MustScheme("A", "B"))
	for i := 0; i < 10; i++ {
		r.MustAdd(TupleOf(fmt.Sprint(i), fmt.Sprint(i%3)))
	}
	built := 0
	path := func(r *Relation, cols ...int) *int {
		t.Helper()
		p, err := Path(r, cols, func() (*int, error) { built++; return new(int), nil })
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := path(r, 0)
	if path(r, 0) != a || built != 1 {
		t.Errorf("a second lookup built again (%d builds)", built)
	}
	b := path(r, 1)
	if path(r, 0) != a || path(r, 1) != b || built != 2 {
		t.Errorf("two column lists do not both stay (%d builds)", built)
	}
	if s, _ := Path(r, []int{0}, func() (string, error) { return "other", nil }); s != "other" {
		t.Error("a path of another type under the same columns was served from the memo")
	}
	// The string path was the third: a and b are gone.
	if path(r, 0) == a || path(r, 1) == b {
		t.Error("a third path left an earlier one current")
	}

	built = 0
	c := path(r, 0)
	r.MustAdd(TupleOf("new", "row"))
	if path(r, 0) == c || built != 2 {
		t.Error("an Add left the path current")
	}
	if path(r.Clone(), 0); built != 3 {
		t.Error("a copy of the relation came with its path")
	}
	boom := errors.New("boom")
	if _, err := Path(r, []int{1, 0}, func() (*int, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("failed build: %v", err)
	}
	if path(r, 1, 0); built != 4 {
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
			p, err := Path(r, []int{col}, func() ([]int, error) { return []int{col}, nil })
			if err != nil || p[0] != col {
				t.Errorf("column %d: path %v, %v", col, p, err)
			}
		}(g % 2)
	}
	wg.Wait()
	for col := 0; col < 2; col++ {
		if _, err := Path(r, []int{col}, func() ([]int, error) { return nil, errors.New("built") }); err != nil {
			t.Errorf("column %d: no path published after the concurrent first use", col)
		}
	}
}
