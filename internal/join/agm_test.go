package join

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"relquery/internal/relation"
)

func schemes(t *testing.T, specs ...string) []relation.Scheme {
	t.Helper()
	out := make([]relation.Scheme, len(specs))
	for i, spec := range specs {
		s, err := relation.SchemeOf(spec)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// agmBound is FractionalCover's bound alone.
func agmBound(schemes []relation.Scheme, sizes []int) float64 {
	_, bound := FractionalCover(schemes, sizes)
	return bound
}

func TestAGMBoundClosedForms(t *testing.T) {
	cases := []struct {
		name    string
		schemes []string
		sizes   []int
		want    float64
	}{
		// Triangle query R(A,B) ∗ S(B,C) ∗ T(A,C): optimal cover is
		// x = (1/2, 1/2, 1/2), bound N^{3/2}.
		{"triangle", []string{"A B", "B C", "A C"}, []int{16, 16, 16}, 64},
		{"triangle-uneven", []string{"A B", "B C", "A C"}, []int{4, 16, 16}, 32},
		// Chain R(A,B) ∗ S(B,C): both relations must be fully covered
		// (A and C each appear once), so the bound is the product.
		{"chain", []string{"A B", "B C"}, []int{3, 5}, 15},
		// Cross product: no shared attributes, bound = product.
		{"cross", []string{"A", "B"}, []int{7, 11}, 77},
		// Single relation: the join is the relation itself.
		{"single", []string{"A B"}, []int{42}, 42},
		// 4-cycle R(A,B) ∗ S(B,C) ∗ T(C,D) ∗ U(D,A): optimal cover picks
		// two opposite edges, bound N².
		{"four-cycle", []string{"A B", "B C", "C D", "D A"}, []int{10, 10, 10, 10}, 100},
		// A relation containing another's scheme covers it for free.
		{"subsumed", []string{"A B C", "A B"}, []int{8, 3}, 8},
		// Empty input ⇒ empty join.
		{"empty-input", []string{"A B", "B C"}, []int{0, 5}, 0},
		// All-empty schemes: at most the empty tuple.
		{"empty-schemes", []string{"", ""}, []int{3, 4}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := agmBound(schemes(t, tc.schemes...), tc.sizes)
			if math.Abs(got-tc.want) > 1e-6*math.Max(1, tc.want) {
				t.Errorf("AGMBound(%v, %v) = %g, want %g", tc.schemes, tc.sizes, got, tc.want)
			}
		})
	}
}

func TestAGMBoundDegenerate(t *testing.T) {
	if got := agmBound(nil, nil); got != 0 {
		t.Errorf("agmBound(nil, nil) = %g, want 0", got)
	}
	if got := agmBound(schemes(t, "A B"), []int{3, 4}); got != 0 {
		t.Errorf("mismatched slices: bound = %g, want 0", got)
	}
	// The degenerate shapes the WCOJ planner feeds the bound: each must
	// come back finite and exactly right — never NaN or Inf.
	cases := []struct {
		name  string
		specs []string
		sizes []int
		want  float64
	}{
		{"single relation", []string{"A B C"}, []int{7}, 7},
		{"disjoint schemes (cross product)", []string{"A B", "C D"}, []int{3, 5}, 15},
		{"duplicate schemes", []string{"A B", "A B", "A B"}, []int{6, 3, 9}, 3},
		{"empty relation", []string{"A B", "B C"}, []int{4, 0}, 0},
		{"all relations empty", []string{"A B", "B C"}, []int{0, 0}, 0},
		{"empty scheme among inputs", []string{"A B", ""}, []int{4, 1}, 4},
		{"all schemes empty", []string{"", ""}, []int{1, 1}, 1},
	}
	for _, tc := range cases {
		got := agmBound(schemes(t, tc.specs...), tc.sizes)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("%s: AGMBound = %g", tc.name, got)
			continue
		}
		if math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("%s: AGMBound(%v, %v) = %g, want %g", tc.name, tc.specs, tc.sizes, got, tc.want)
		}
	}
}

// TestAGMBoundDominatesActualJoin property-checks the theorem itself: the
// observed size of a random natural join never exceeds the bound.
func TestAGMBoundDominatesActualJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2008)) // the AGM paper's year
	shapes := [][]string{
		{"A B", "B C"},
		{"A B", "B C", "A C"},
		{"A B", "B C", "C D", "D A"},
		{"A B C", "B C D", "A D"},
	}
	for trial := 0; trial < 40; trial++ {
		shape := shapes[trial%len(shapes)]
		rels := make([]*relation.Relation, len(shape))
		for i, spec := range shape {
			s, err := relation.SchemeOf(spec)
			if err != nil {
				t.Fatal(err)
			}
			r := relation.New(s)
			domain := 2 + rng.Intn(4)
			for n := rng.Intn(30); n > 0; n-- {
				vals := make([]string, s.Len())
				for j := range vals {
					vals[j] = fmt.Sprintf("v%d", rng.Intn(domain))
				}
				r.MustAdd(relation.TupleOf(vals...))
			}
			rels[i] = r
		}
		out, err := Multi(Exec{}, NewPlan(rels...), Hash{}, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		bound := AGMBoundOf(rels)
		anyEmpty := false
		for _, r := range rels {
			if r.Len() == 0 {
				anyEmpty = true
			}
		}
		if anyEmpty {
			if bound != 0 {
				t.Errorf("trial %d: empty input but bound = %g", trial, bound)
			}
			continue
		}
		if float64(out.Len()) > bound+1e-6 {
			t.Errorf("trial %d (%v): |join| = %d exceeds AGM bound %g", trial, shape, out.Len(), bound)
		}
	}
}
