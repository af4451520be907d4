package relation_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// checkAcyclicJoin holds join.Yannakakis' tree join and join.FullReduce to
// the reference oracle on one acyclic join: JoinAll, cold and warm, must
// equal the fold of Relation.Join over the inputs, the cardinality it
// counted before it built a row (what it reports as emitted) must be the
// cardinality it built, what it reports as built and probed must be the
// fully reduced inputs, and FullReduce must leave each input equal to the
// join projected onto its scheme.
func checkAcyclicJoin(t *testing.T, rels []*relation.Relation) {
	t.Helper()
	want := rels[0]
	for _, r := range rels[1:] {
		var err error
		if want, err = want.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	p := join.NewPlan(rels...)
	if _, ok := p.JoinTree(); !ok {
		t.Fatalf("schemes %v are not acyclic; the case proves nothing", join.SchemesOf(rels))
	}
	// Cold, then warm: the second evaluation reads the edge tables the
	// first memoized on the inputs, and the shape it left in the facts.
	var m *obs.Metrics
	var got *relation.Relation
	for _, temperature := range []string{"cold", "warm"} {
		m = &obs.Metrics{}
		var err error
		if got, err = (join.Yannakakis{}).JoinAll(join.Exec{Metrics: m}, p); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s JoinAll over %v: %d tuples, the oracle has %d\n got %v\nwant %v",
				temperature, join.SchemesOf(rels), got.Len(), want.Len(), got.Sorted(), want.Sorted())
		}
	}
	reduced, _, err := join.FullReduce(rels)
	if err != nil {
		t.Fatal(err)
	}
	live := 0
	for i, r := range reduced {
		proj, err := want.Project(rels[i].Scheme())
		if err != nil {
			t.Fatal(err)
		}
		if !r.Equal(proj) {
			t.Fatalf("FullReduce over %v: input %d keeps %v, the join's projection is %v",
				join.SchemesOf(rels), i, r.Sorted(), proj.Sorted())
		}
		live += r.Len()
	}
	if len(rels) == 1 {
		return // a single input passes through uncounted
	}
	s := m.Snapshot()
	if int(s.TuplesEmitted) != got.Len() {
		t.Fatalf("JoinAll over %v counted %d output tuples and built %d", join.SchemesOf(rels), s.TuplesEmitted, got.Len())
	}
	if int(s.TuplesBuilt+s.TuplesProbed) != live {
		t.Fatalf("JoinAll over %v reports %d+%d reduced rows, FullReduce leaves %d", join.SchemesOf(rels), s.TuplesBuilt, s.TuplesProbed, live)
	}
}

// randomJoinTree draws an acyclic join of 2–6 relations of arity 0–4: a
// random tree in which every node after the first shares a random subset
// of its parent's attributes — none of them on a cartesian edge, all of
// them and nothing else when it repeats its parent's scheme — and adds
// fresh ones, so each attribute lives on a connected subtree. Values come
// from a domain of 2 or 3 (skewed keys: a few fat groups), 5, or 50 (mostly
// unique keys), and each relation is drawn empty, tiny or up to 40 rows.
func randomJoinTree(rng *rand.Rand) []*relation.Relation {
	domain := []int{2, 3, 5, 50}[rng.Intn(4)]
	fresh := 0
	schemes := make([][]relation.Attribute, 2+rng.Intn(5))
	rels := make([]*relation.Relation, len(schemes))
	for i := range schemes {
		var attrs []relation.Attribute
		if i > 0 {
			for _, a := range schemes[rng.Intn(i)] {
				if rng.Intn(2) == 0 {
					attrs = append(attrs, a)
				}
			}
		}
		for n := rng.Intn(5); len(attrs) < n; fresh++ {
			attrs = append(attrs, relation.Attribute(fmt.Sprintf("X%d", fresh)))
		}
		rng.Shuffle(len(attrs), func(a, b int) { attrs[a], attrs[b] = attrs[b], attrs[a] })
		schemes[i] = attrs
		r := relation.New(relation.MustScheme(attrs...))
		for k, rows := 0, []int{0, 1, 3, 8, 8, 20, 40, 40}[rng.Intn(8)]; k < rows; k++ {
			tp := make(relation.Tuple, len(attrs))
			for c := range tp {
				tp[c] = relation.Value(fmt.Sprint(rng.Intn(domain)))
			}
			r.MustAdd(tp)
		}
		rels[i] = r
	}
	return rels
}

// acyclicEdgeCases are the shapes a random draw reaches too rarely to
// rely on.
func acyclicEdgeCases(t *testing.T) map[string][]*relation.Relation {
	schemeOf := func(spec string) relation.Scheme {
		t.Helper()
		s, err := relation.SchemeOf(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rows := func(scheme string, rows ...string) *relation.Relation {
		t.Helper()
		var split [][]string
		for _, r := range rows {
			split = append(split, strings.Fields(r))
		}
		r, err := relation.FromRows(schemeOf(scheme), split...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	edges := rows("A B", "1 2", "2 3", "3 1", "3 4", "4 4")
	renamed := func(scheme string) *relation.Relation {
		t.Helper()
		r, err := relation.FromTuples(schemeOf(scheme), edges.Tuples())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	return map[string][]*relation.Relation{
		"single input":        {edges},
		"one relation twice":  {edges, edges},
		"walks of length 3":   {edges, renamed("B C"), renamed("C D")},
		"fan of one relation": {edges, renamed("A C"), renamed("A D")},
		"disjoint schemes":    {edges, rows("C", "x", "y"), rows("D E", "p q")},
		"empty input":         {edges, renamed("B C"), rows("C D")},
		"empty arity 0":       {edges, rows("")},
		"unit arity 0":        {edges, rows("", ""), renamed("B C")},
		// The far leaf joins with nothing, which kills C D, then B C, then
		// the root: the mark pass empties the whole tree from one branch.
		"dead branch": {edges, renamed("B C"), rows("C D", "1 9", "4 9"), rows("D E", "8 8"), renamed("A F")},
		// One fat group on either side of the shared key and one group
		// that dangles on each.
		"skewed key": {
			rows("A B", "a1 k", "a2 k", "a3 k", "a4 k", "a5 left"),
			rows("B C", "k c1", "k c2", "k c3", "right c4"),
			rows("C D", "c1 d", "c2 d", "c4 d"),
		},
	}
}

// runAcyclicDifferential is the generated suite: the edge cases and the
// given number of random join trees from a fixed seed.
func runAcyclicDifferential(t *testing.T, trees int) {
	for name, rels := range acyclicEdgeCases(t) {
		t.Run(name, func(t *testing.T) { checkAcyclicJoin(t, rels) })
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < trees; i++ {
		checkAcyclicJoin(t, randomJoinTree(rng))
	}
}

func TestAcyclicJoinMatchesOracle(t *testing.T) { runAcyclicDifferential(t, 400) }

// TestAcyclicJoinUnderTotalCollision reruns the suite with every tuple
// hashing to 0: each edge's table is then one probe chain, and grouping,
// liveness and the counts must rest on key comparison alone. Fewer trees:
// the oracle's own set operations are quadratic under the seam.
func TestAcyclicJoinUnderTotalCollision(t *testing.T) {
	relation.CollideAllHashes(t)
	runAcyclicDifferential(t, 200)
}
