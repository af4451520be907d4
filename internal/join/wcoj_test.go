package join

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// bigRel builds a two-column relation of rows rows with a controllable
// number of distinct values in its first column.
func bigRel(seed int64, scheme relation.Scheme, rows, keys int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(scheme)
	for i := 0; i < rows; i++ {
		r.MustAdd(relation.TupleOf(
			fmt.Sprintf("k%d", rng.Intn(keys)),
			fmt.Sprintf("v%d", i),
		))
	}
	return r
}

// multiHash is the binary-plan reference the generic join must agree
// with on every input.
func multiHash(t *testing.T, inputs []*relation.Relation) *relation.Relation {
	t.Helper()
	out, err := Multi(Exec{}, NewPlan(inputs...), Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGenericMatchesMultiOnFixedCases(t *testing.T) {
	cases := map[string][]*relation.Relation{
		"triangle": {
			rel(t, "A B", "1 1", "1 2", "2 1", "3 3"),
			rel(t, "B C", "1 1", "2 1", "1 2", "3 3"),
			rel(t, "A C", "1 1", "1 2", "2 2", "3 3"),
		},
		"chain": {
			rel(t, "A B", "1 x", "2 x", "2 y"),
			rel(t, "B C", "x p", "y q"),
			rel(t, "C D", "p 7", "q 8", "q 9"),
		},
		"binary": {
			rel(t, "A B", "1 x", "2 x", "2 y"),
			rel(t, "B C", "x p", "y q", "z r"),
		},
		"cross": {
			rel(t, "A", "1", "2"),
			rel(t, "B", "x", "y", "z"),
		},
		"duplicate schemes": {
			rel(t, "A B", "1 x", "2 y", "3 z"),
			rel(t, "A B", "1 x", "2 y"),
			rel(t, "B A", "x 1"),
		},
		"shared and cross mixed": {
			rel(t, "A B", "1 x", "2 y"),
			rel(t, "B C", "x p", "y q"),
			rel(t, "D", "7", "8"),
		},
		"empty scheme passthrough": {
			rel(t, "A", "1", "2"),
			rel(t, ""),
		},
	}
	// The nullary-scheme relation holding the empty tuple is the join's
	// neutral element.
	cases["empty scheme passthrough"][1].MustAdd(relation.Tuple{})

	for name, inputs := range cases {
		t.Run(name, func(t *testing.T) {
			want := multiHash(t, inputs)
			sp := &obs.Span{}
			got, err := Generic{}.JoinAll(Exec{Span: sp}, NewPlan(inputs...))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("generic join = %v, want %v", got.Sorted(), want.Sorted())
			}
			if !got.Scheme().Equal(want.Scheme()) {
				t.Fatalf("scheme %v, want set-equal to %v", got.Scheme(), want.Scheme())
			}
			if got.Len() > 0 && (sp.Intersections == 0 || sp.Candidates == 0) {
				t.Errorf("non-empty join reported no search effort: candidates=%d intersections=%d", sp.Candidates, sp.Intersections)
			}
			if sp.MaxIntermediate != got.Len() {
				t.Errorf("span peak = %d, want the output's %d rows", sp.MaxIntermediate, got.Len())
			}
		})
	}
}

func TestGenericEdgeCases(t *testing.T) {
	if _, err := (Generic{}).JoinAll(Exec{}, NewPlan()); err == nil {
		t.Error("JoinAll(nil) succeeded")
	}
	one := rel(t, "A", "1")
	got, err := Generic{}.JoinAll(Exec{}, NewPlan(one))
	if err != nil || !got.Equal(one) {
		t.Errorf("JoinAll(single) = %v, %v", got, err)
	}
	empty := rel(t, "B C")
	out, err := Generic{}.JoinAll(Exec{}, NewPlan(one, empty, rel(t, "C D", "p 7")))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("join with empty input has %d tuples", out.Len())
	}
	if !out.Scheme().Equal(relation.MustScheme("A", "B", "C", "D")) {
		t.Errorf("empty join scheme = %v", out.Scheme())
	}
}

// TestGenericBinaryAlgorithm exercises Generic on a two-input node
// through Multi, the entry point the rest of the engine uses.
func TestGenericBinaryAlgorithm(t *testing.T) {
	l := bigRel(11, relation.MustScheme("K", "A"), 300, 17)
	r := bigRel(12, relation.MustScheme("K", "B"), 400, 17)
	want, err := Hash{}.Join(Exec{}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Multi(Exec{}, NewPlan(l, r), Generic{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("generic binary join differs from hash: %d vs %d tuples", got.Len(), want.Len())
	}
}

// TestQuickGenericMatchesMulti cross-checks the generic join against the
// greedy binary plan on random 3-ary joins.
func TestQuickGenericMatchesMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randRel := func(spec string, rows, vals int) *relation.Relation {
		s := relation.MustScheme()
		var err error
		if s, err = relation.SchemeOf(spec); err != nil {
			t.Fatal(err)
		}
		r := relation.New(s)
		for i := 0; i < rows; i++ {
			row := make([]string, s.Len())
			for j := range row {
				row[j] = fmt.Sprintf("v%d", rng.Intn(vals))
			}
			r.MustAdd(relation.TupleOf(row...))
		}
		return r
	}
	for trial := 0; trial < 50; trial++ {
		inputs := []*relation.Relation{
			randRel("A B", 1+rng.Intn(20), 4),
			randRel("B C", 1+rng.Intn(20), 4),
			randRel("C A", 1+rng.Intn(20), 4),
		}
		want := multiHash(t, inputs)
		got, err := Generic{}.JoinAll(Exec{}, NewPlan(inputs...))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: generic join differs (%d vs %d tuples)", trial, got.Len(), want.Len())
		}
	}
}

// TestGenericNeverExceedsAGM is the worst-case-optimality contract at the
// unit level: the generic join materializes only its output, which the
// AGM bound dominates.
func TestGenericNeverExceedsAGM(t *testing.T) {
	inputs := []*relation.Relation{
		bigRel(21, relation.MustScheme("A", "B"), 200, 13),
		bigRel(22, relation.MustScheme("B", "C"), 200, 13),
		bigRel(23, relation.MustScheme("A", "C"), 200, 13),
	}
	out, err := Generic{}.JoinAll(Exec{}, NewPlan(inputs...))
	if err != nil {
		t.Fatal(err)
	}
	if bound := AGMBoundOf(inputs); float64(out.Len()) > bound+1e-6 {
		t.Errorf("output %d exceeds AGM bound %g", out.Len(), bound)
	}
}

// TestWarmGenericJoinDerivesNoShape: a plan over facts an earlier
// evaluation completed runs the generic join on the facts' shape — no
// output scheme, attribute order or index map rebuilt, and with them no
// hypergraph, the order's input — over the tries the first join left on
// its inputs, and allocates only what depends on the request: the
// search's ranges and binding, and the output.
func TestWarmGenericJoinDerivesNoShape(t *testing.T) {
	facts := new(Facts)
	inputs := trianglePlan(t).Inputs
	first := facts.Plan(inputs...)
	cold, err := Generic{}.JoinAll(Exec{}, &first)
	if err != nil {
		t.Fatal(err)
	}
	warm := facts.Plan(inputs...)
	out, err := Generic{}.JoinAll(Exec{}, &warm)
	if err != nil || !out.Equal(cold) || !out.Scheme().SameOrder(cold.Scheme()) {
		t.Fatalf("warm join = %v, %v; cold %v", out, err, cold)
	}
	if warm.hg != nil {
		t.Error("the warm plan built the hypergraph: it derived the shape again")
	}
	allocs := testing.AllocsPerRun(10, func() {
		p := facts.Plan(inputs...)
		if _, err := (Generic{}).JoinAll(Exec{}, &p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a warm generic join over the triangle allocates %v times", allocs)
	if allocs > 16 { // 14 measured; 20 when every request sorted its tries, 62 when it derived the shape
		t.Errorf("a warm generic join allocates %v times", allocs)
	}
}

func TestGenericMetrics(t *testing.T) {
	var m obs.Metrics
	inputs := []*relation.Relation{
		rel(t, "A B", "1 x", "2 y"),
		rel(t, "B C", "x p", "y q"),
		rel(t, "A C", "1 p", "2 q"),
	}
	out, err := Generic{}.JoinAll(Exec{Metrics: &m}, NewPlan(inputs...))
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.WCOJJoins != 1 || snap.WCOJCandidates == 0 || snap.WCOJIntersections == 0 {
		t.Errorf("wcoj counters not recorded: %+v", snap)
	}
	if snap.Joins != 1 || int(snap.MaxIntermediate) != out.Len() {
		t.Errorf("join counters: joins=%d max_intermediate=%d, output=%d",
			snap.Joins, snap.MaxIntermediate, out.Len())
	}
}

// TestFractionalCover checks the LP's witness: the returned weights form
// a feasible fractional edge cover whose objective reproduces the bound.
// A case with a subset poses the LP of those edges alone, as the greedy
// simulation does for each accumulator.
func TestFractionalCover(t *testing.T) {
	cases := []struct {
		specs  []string
		sizes  []int
		subset []int // nil: every edge
		bound  float64
	}{
		{[]string{"A B", "B C"}, []int{3, 4}, nil, 12},                               // chain: product
		{[]string{"A B", "B C", "A C"}, []int{4, 4, 4}, nil, 8},                      // triangle: n^{3/2}
		{[]string{"A", "A"}, []int{5, 7}, nil, 5},                                    // duplicate-ish: min side covers
		{[]string{"A B", "A B", "A B"}, []int{6, 3, 9}, nil, 3},                      // duplicate schemes: smallest
		{[]string{"A", "B"}, []int{2, 3}, nil, 6},                                    // cross product
		{[]string{"A B C"}, []int{11}, nil, 11},                                      // single relation
		{[]string{"A B", "B C", "C D", "D A"}, []int{2, 2, 2, 2}, nil, 4},            // 4-cycle
		{[]string{"A B", "B C", "A C"}, []int{1, 4, 4}, nil, 4},                      // one-row relation: zero right-hand side
		{[]string{"A B", "B C", "B C"}, []int{4, 9, 2}, nil, 8},                      // duplicate edges of different sizes
		{[]string{"A B", "B C", "A C", "A D"}, []int{4, 4, 4, 5}, nil, 20},           // D held by one edge only
		{[]string{"A B", "B C", "A C", "C D"}, []int{4, 4, 4, 3}, []int{0, 1, 2}, 8}, // subset LP: the triangle
	}
	for _, tc := range cases {
		scs := schemes(t, tc.specs...)
		edges, sizes := scs, tc.sizes // the LP's edges
		var x []float64
		var bound float64
		if tc.subset == nil {
			x, bound = FractionalCover(scs, tc.sizes)
		} else {
			x, bound = newHypergraph(scs, tc.sizes).cover(tc.subset, true, nil)
			edges, sizes = nil, nil
			for _, i := range tc.subset {
				edges, sizes = append(edges, scs[i]), append(sizes, tc.sizes[i])
			}
		}
		if math.Abs(bound-tc.bound) > 1e-9*tc.bound {
			t.Errorf("%v %v %v: bound = %g, want %g", tc.specs, tc.sizes, tc.subset, bound, tc.bound)
			continue
		}
		checkCover(t, fmt.Sprint(tc.specs, tc.subset), edges, sizes, x, bound)
	}
}

// TestFuzzedCoversAreWitnesses holds FractionalCover's x on every fuzzed
// node to what an optimal cover is: non-negative, covering every
// attribute, and reproducing the bound.
func TestFuzzedCoversAreWitnesses(t *testing.T) {
	for name, rels := range fuzzedNodes(t) {
		scs := SchemesOf(rels)
		sizes := make([]int, len(rels))
		for i, r := range rels {
			sizes[i] = r.Len()
		}
		x, bound := FractionalCover(scs, sizes)
		if bound == 0 {
			if x != nil {
				t.Errorf("%s: bound 0 with cover %v", name, x)
			}
			continue
		}
		checkCover(t, name, scs, sizes, x, bound)
	}
}

// checkCover holds x to a fractional edge cover of scs — one weight ≥ 0
// per scheme, Σ_{i ∋ a} x_i ≥ 1 for every attribute a — whose objective
// ∏ sizes_i^{x_i} is bound.
func checkCover(t *testing.T, name string, scs []relation.Scheme, sizes []int, x []float64, bound float64) {
	t.Helper()
	if len(x) != len(sizes) {
		t.Fatalf("%s: cover has %d weights for %d relations", name, len(x), len(sizes))
	}
	attrs := relation.MustScheme()
	for i, sc := range scs {
		attrs = attrs.Union(sc)
		if x[i] < -1e-12 {
			t.Errorf("%s: negative weight %g in %v", name, x[i], x)
		}
	}
	for _, a := range attrs.Attrs() {
		total := 0.0
		for i, sc := range scs {
			if sc.Has(a) {
				total += x[i]
			}
		}
		if total < 1-1e-9 {
			t.Errorf("%s: attribute %s covered with weight %g < 1 by %v", name, a, total, x)
		}
	}
	obj := 0.0
	for i, s := range sizes {
		obj += x[i] * math.Log2(float64(s))
	}
	if got := math.Exp2(obj); math.Abs(got-bound) > 1e-9*bound {
		t.Errorf("%s: cover objective %g, bound %g", name, got, bound)
	}
}

func TestFractionalCoverDegenerate(t *testing.T) {
	if x, b := FractionalCover(nil, nil); x != nil || b != 0 {
		t.Errorf("FractionalCover(nil, nil) = %v, %g", x, b)
	}
	if x, b := FractionalCover(schemes(t, "", ""), []int{1, 1}); b != 1 || len(x) != 2 || x[0] != 0 || x[1] != 0 {
		t.Errorf("all-empty schemes: cover %v bound %g, want zero cover and bound 1", x, b)
	}
}

// TestPredictedPeakGreedy sanity-checks the auto-selector's input: the
// prediction is finite, non-negative, and large exactly on a
// blow-up-shaped workload.
func TestPredictedPeakGreedy(t *testing.T) {
	if p := PredictedPeakGreedy(nil); p != 0 {
		t.Errorf("no inputs: predicted %g", p)
	}
	if p := PredictedPeakGreedy([]*relation.Relation{rel(t, "A B", "1 x")}); p != 0 {
		t.Errorf("single input: predicted %g", p)
	}
	// Key-joined chain: every intermediate stays near the input sizes.
	tame := []*relation.Relation{
		bigRel(31, relation.MustScheme("K", "A"), 300, 300),
		bigRel(32, relation.MustScheme("K", "B"), 300, 300),
	}
	tamePeak := PredictedPeakGreedy(tame)
	if math.IsInf(tamePeak, 0) || math.IsNaN(tamePeak) || tamePeak < 0 {
		t.Fatalf("tame peak = %g", tamePeak)
	}
	// Recombination blow-up: few shared values, wide cross sections.
	blow := []*relation.Relation{
		bigRel(33, relation.MustScheme("K", "A"), 300, 2),
		bigRel(34, relation.MustScheme("K", "B"), 300, 2),
	}
	if blowPeak := PredictedPeakGreedy(blow); blowPeak <= tamePeak {
		t.Errorf("blow-up workload predicted %g, tame %g", blowPeak, tamePeak)
	}
}

// TestWorstCasePeakGreedy checks the data-independent side of the auto
// selector: the AGM bound of the greedy plan's intermediate accumulators.
func TestWorstCasePeakGreedy(t *testing.T) {
	if p := WorstCasePeakGreedy([]*relation.Relation{rel(t, "A B", "1 x")}); p != 0 {
		t.Errorf("single input: worst-case peak %g", p)
	}
	// Binary joins have no intermediate accumulator: the only merge is the
	// final one, so the worst case is 0 and auto selection never fires.
	two := []*relation.Relation{
		bigRel(41, relation.MustScheme("K", "A"), 300, 20),
		bigRel(42, relation.MustScheme("K", "B"), 300, 20),
	}
	if p := WorstCasePeakGreedy(two); p != 0 {
		t.Errorf("binary join: worst-case peak %g, want 0", p)
	}
	// Triangle: whichever pair greedy merges first has AGM bound N², above
	// the n-ary bound N^{3/2} — the canonical case where a binary plan can
	// be forced past what the generic join guarantees.
	tri := []*relation.Relation{
		bigRel(43, relation.MustScheme("A", "B"), 64, 8),
		bigRel(44, relation.MustScheme("B", "C"), 64, 8),
		bigRel(45, relation.MustScheme("A", "C"), 64, 8),
	}
	worst, bound := WorstCasePeakGreedy(tri), AGMBoundOf(tri)
	if worst <= bound {
		t.Errorf("triangle: worst-case peak %g not above n-ary bound %g", worst, bound)
	}
	// Key-joined chain: every accumulator's bound equals the final bound,
	// so the worst case never exceeds it and auto selection stays off.
	chain := []*relation.Relation{
		bigRel(46, relation.MustScheme("K", "A"), 300, 300),
		bigRel(47, relation.MustScheme("K", "B"), 300, 300),
		bigRel(48, relation.MustScheme("A", "C"), 300, 300),
	}
	if worst, bound := WorstCasePeakGreedy(chain), AGMBoundOf(chain); worst > bound {
		t.Errorf("chain: worst-case peak %g above n-ary bound %g", worst, bound)
	}
}

// announced is a block writer that notes the count Begin announced.
type announced struct {
	relation.BlockWriter
	rows int
}

func (a *announced) Begin(scheme relation.Scheme, rows int) bool {
	a.rows = rows
	return a.BlockWriter.Begin(scheme, rows)
}

// TestGenericJoinStreamsItsAnswer: under Exec.Out the generic join builds
// nothing. It announces an unknown count, writes exactly the bytes
// WriteRelation writes of the answer it builds without Out, and returns no
// relation; its metrics and its span's peak are the built join's, and so
// are its budgets — the memory charge of exactly the rows passes and one
// byte less is refused, as is a result cap one row short. Also when every
// tuple hash collides.
func TestGenericJoinStreamsItsAnswer(t *testing.T) {
	for _, collide := range []bool{false, true} {
		if collide {
			relation.CollideAllHashes(t)
		}
		l, r := skewedPair(200, 1)
		tri := relation.New(relation.MustScheme("A", "B", "C"))
		for i := 0; i < 120; i++ {
			tri.MustAdd(relation.TupleOf(fmt.Sprint(i%5), fmt.Sprint(i%8), fmt.Sprint(i%11)))
		}
		legs := make([]*relation.Relation, 3)
		for i, leg := range []relation.Scheme{relation.MustScheme("A", "B"), relation.MustScheme("B", "C"), relation.MustScheme("A", "C")} {
			legs[i], _ = tri.Project(leg)
		}
		for name, inputs := range map[string][]*relation.Relation{"200 × 200": {l, r}, "triangle": legs} {
			what := fmt.Sprintf("%s (collide %v)", name, collide)
			var builtM, streamedM obs.Metrics
			var c obs.Collector
			builtSp, streamedSp := c.Start(obs.OpJoin, "built"), c.Start(obs.OpJoin, "streamed")
			built, err := Generic{}.JoinAll(Exec{Metrics: &builtM, Span: builtSp}, NewPlan(inputs...))
			if err != nil || built.Len() < checkBatch {
				t.Fatalf("%s: %v, %v; want an answer of more than a batch", what, built, err)
			}
			var want, got bytes.Buffer
			if err := relation.WriteRelation(&want, "result", built); err != nil {
				t.Fatal(err)
			}
			out := &announced{BlockWriter: relation.BlockWriter{W: bufio.NewWriter(&got), Name: "result"}}
			if r, err := (Generic{}).JoinAll(Exec{Metrics: &streamedM, Span: streamedSp, Out: out}, NewPlan(inputs...)); err != nil || r != nil {
				t.Fatalf("%s: under Out the join returned %v, %v; want no relation", what, r, err)
			}
			if err := out.End(); err != nil || out.W.Flush() != nil {
				t.Fatal(err)
			}
			if out.rows != -1 || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: announced %d rows and wrote\n%.300s\nWriteRelation of the built answer\n%.300s", what, out.rows, got.Bytes(), want.Bytes())
			}
			if builtM.Snapshot() != streamedM.Snapshot() || builtSp.MaxIntermediate != streamedSp.MaxIntermediate {
				t.Errorf("%s: streamed metrics %+v, peak %d; built %+v, peak %d", what, streamedM.Snapshot(), streamedSp.MaxIntermediate, builtM.Snapshot(), builtSp.MaxIntermediate)
			}
			charge := int64(built.Len()) * relation.RowBytes(built.Scheme().Len())
			for _, limits := range []governor.Limits{
				{MaxMemoryBytes: charge},
				{MaxMemoryBytes: charge - 1},
				{MaxRows: built.Len()},
				{MaxRows: built.Len() - 1},
			} {
				fails := limits.MaxMemoryBytes == charge-1 || limits.MaxRows == built.Len()-1
				gov := governor.New(context.Background(), limits)
				var discard bytes.Buffer
				_, err := Generic{}.JoinAll(Exec{Gov: gov, Out: &relation.BlockWriter{W: bufio.NewWriter(&discard)}}, NewPlan(inputs...))
				if (err != nil) != fails {
					t.Errorf("%s under %+v: %v, want failure %v", what, limits, err, fails)
				}
			}
		}
	}
}
