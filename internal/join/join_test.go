package join

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

func rel(t *testing.T, scheme string, rows ...string) *relation.Relation {
	t.Helper()
	s, err := relation.SchemeOf(scheme)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New(s)
	for _, row := range rows {
		if _, err := r.Add(relation.TupleOf(strings.Fields(row)...)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func allAlgorithms(t *testing.T) []Algorithm {
	t.Helper()
	var algs []Algorithm
	for _, n := range Names() {
		a, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	return algs
}

func TestByName(t *testing.T) {
	for _, n := range Names() {
		a, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if a.Name() != n {
			t.Errorf("ByName(%q).Name() = %q", n, a.Name())
		}
	}
	for _, gone := range []string{"bogus", "parallel"} {
		if _, err := ByName(gone); err == nil {
			t.Errorf("ByName(%s) succeeded", gone)
		}
	}
}

func TestAlgorithmsAgreeOnFixedCases(t *testing.T) {
	cases := []struct {
		name string
		l, r *relation.Relation
		want *relation.Relation
	}{
		{
			"shared attribute",
			rel(t, "A B", "1 x", "2 y"),
			rel(t, "B C", "x p", "x q", "z r"),
			rel(t, "A B C", "1 x p", "1 x q"),
		},
		{
			"disjoint (cross product)",
			rel(t, "A", "1", "2"),
			rel(t, "B", "u", "v"),
			rel(t, "A B", "1 u", "1 v", "2 u", "2 v"),
		},
		{
			"identical schemes (intersection)",
			rel(t, "A B", "1 1", "2 2"),
			rel(t, "A B", "2 2", "3 3"),
			rel(t, "A B", "2 2"),
		},
		{
			"empty side",
			rel(t, "A B", "1 1"),
			rel(t, "B C"),
			rel(t, "A B C"),
		},
		{
			"containment",
			rel(t, "A B C", "1 x p", "2 y q"),
			rel(t, "B", "x"),
			rel(t, "A B C", "1 x p"),
		},
	}
	for _, alg := range allAlgorithms(t) {
		for _, tc := range cases {
			got, err := Multi(Exec{}, NewPlan(tc.l, tc.r), alg, Greedy)
			if err != nil {
				t.Fatalf("%s/%s: %v", alg.Name(), tc.name, err)
			}
			if !got.Equal(tc.want) {
				t.Errorf("%s/%s: got %v want %v", alg.Name(), tc.name, got.Sorted(), tc.want.Sorted())
			}
		}
	}
}

func randomRelation(rng *rand.Rand, scheme relation.Scheme, maxRows int) *relation.Relation {
	r := relation.New(scheme)
	alphabet := []string{"0", "1", "e"}
	for i, n := 0, rng.Intn(maxRows+1); i < n; i++ {
		t := make(relation.Tuple, scheme.Len())
		for j := range t {
			t[j] = relation.Value(alphabet[rng.Intn(len(alphabet))])
		}
		r.MustAdd(t)
	}
	return r
}

// TestQuickAlgorithmsAgreeWithNestedLoop checks every Names() strategy on
// random inputs against the reference oracle relation.Relation.Join.
func TestQuickAlgorithmsAgreeWithNestedLoop(t *testing.T) {
	algs := allAlgorithms(t)
	schemes := []struct{ l, r relation.Scheme }{
		{relation.MustScheme("A", "B"), relation.MustScheme("B", "C")},
		{relation.MustScheme("A", "B", "C"), relation.MustScheme("B", "C", "D")},
		{relation.MustScheme("A"), relation.MustScheme("B")},
		{relation.MustScheme("A", "B"), relation.MustScheme("A", "B")},
	}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sc := schemes[int(pick)%len(schemes)]
		l := randomRelation(rng, sc.l, 12)
		r := randomRelation(rng, sc.r, 12)
		ref, err := l.Join(r)
		if err != nil {
			return false
		}
		for _, alg := range algs {
			got, err := Multi(Exec{}, NewPlan(l, r), alg, Greedy)
			if err != nil || !got.Equal(ref) {
				t.Logf("%s disagrees with Relation.Join on\n%v\n%v", alg.Name(), l.Sorted(), r.Sorted())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMultiSequentialMatchesGreedy(t *testing.T) {
	chain := []*relation.Relation{
		rel(t, "A B", "1 x", "2 y"),
		rel(t, "B C", "x p", "y q"),
		rel(t, "C D", "p 7", "q 8", "q 9"),
	}
	seq, err := Multi(Exec{}, NewPlan(chain...), Hash{}, Sequential)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := Multi(Exec{}, NewPlan(chain...), Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(greedy) {
		t.Errorf("orders disagree:\nseq %v\ngreedy %v", seq.Sorted(), greedy.Sorted())
	}
	want := rel(t, "A B C D", "1 x p 7", "2 y q 8", "2 y q 9")
	if !seq.Equal(want) {
		t.Errorf("Multi = %v, want %v", seq.Sorted(), want.Sorted())
	}
}

// TestHashPlanEdgeCases runs the binary hash plan, in both orders, on the
// shapes where row ids and values could part: a zero-arity input with no
// row and with its one row, an empty input in the middle of the plan, one
// relation given twice, a cartesian component, a two-input node and a
// key of two columns read from two different inputs — also
// with every tuple hashing to 0, so the tables group on key comparison
// alone. Each answer must equal the fold of Relation.Join, and must be
// foldHash's row for row, in the same column order, with the same join
// counters: that is the order and the accounting the plan had when its
// intermediates were relations.
func TestHashPlanEdgeCases(t *testing.T) {
	ab := rel(t, "A B", "1 x", "2 x", "3 y")
	bc := rel(t, "B C", "x p", "x q", "y p", "z r")
	cd := rel(t, "C D", "p 7", "q 8", "q 9")
	cases := []struct {
		name string
		rels []*relation.Relation
	}{
		{"zero-arity, empty", []*relation.Relation{ab, rel(t, ""), bc}},
		{"zero-arity, one row", []*relation.Relation{ab, rel(t, "", ""), bc, cd}}, // the join's neutral element
		{"empty in the middle", []*relation.Relation{ab, rel(t, "B C"), cd}},
		{"one relation twice", []*relation.Relation{ab, bc, ab, cd}},
		{"cartesian component", []*relation.Relation{ab, rel(t, "E F", "e f", "g h"), bc, cd}},
		{"two inputs", []*relation.Relation{ab, bc}},
		{"two inputs, disjoint", []*relation.Relation{ab, cd}},
		{"a two-column key", []*relation.Relation{ab, bc, rel(t, "A C D", "1 p 7", "1 q 7", "3 p 9", "3 q 9")}},
	}
	for _, collide := range []bool{false, true} {
		for _, tc := range cases {
			rels := tc.rels
			t.Run(fmt.Sprintf("%s/collide=%v", tc.name, collide), func(t *testing.T) {
				if collide {
					relation.CollideAllHashes(t)
				}
				want := oracleJoin(t, rels)
				for _, order := range []Order{Sequential, Greedy} {
					var planned, folded obs.Metrics
					got, err := Multi(Exec{Metrics: &planned}, NewPlan(rels...), Hash{}, order)
					if err != nil {
						t.Fatal(err)
					}
					pairwise, err := foldHash(Exec{Metrics: &folded}, rels, order, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("%v: %v, the oracle has %v", order, got.Sorted(), want.Sorted())
					}
					if !got.Scheme().SameOrder(pairwise.Scheme()) || got.Len() != pairwise.Len() {
						t.Fatalf("%v: scheme %v and %d rows, the pairwise fold has %v and %d", order, got.Scheme(), got.Len(), pairwise.Scheme(), pairwise.Len())
					}
					for i := 0; i < got.Len(); i++ {
						if !got.Tuple(i).Equal(pairwise.Tuple(i)) {
							t.Fatalf("%v: row %d is %v, the pairwise fold's is %v", order, i, got.Tuple(i), pairwise.Tuple(i))
						}
					}
					if p, f := planned.Snapshot(), folded.Snapshot(); p != f {
						t.Errorf("%v: the plan counted %+v, the pairwise fold %+v", order, p, f)
					}
				}
			})
		}
	}
}

// TestHashJoinEmissionOrder pins the order a two-input hash join writes
// its rows in, the order every step of a binary plan keeps: build on the
// smaller side, the left one on a tie; then probe row by probe row, each
// probe row's matches in build order, stitched left columns first.
func TestHashJoinEmissionOrder(t *testing.T) {
	l := rel(t, "A B", "1 x", "2 y", "3 x")
	cases := []struct {
		name string
		r    *relation.Relation
		want []string
	}{
		// Three rows each: a tie, so the table is on l and r probes.
		{"tie builds left", rel(t, "B C", "y p", "x q", "x r"), []string{"2 y p", "1 x q", "3 x q", "1 x r", "3 x r"}},
		// r is smaller: the table is on r and l probes.
		{"smaller right builds right", rel(t, "B C", "x q", "x p"), []string{"1 x q", "1 x p", "3 x q", "3 x p"}},
		// l is smaller: the table is on l and r probes.
		{"smaller left builds left", rel(t, "B C", "x q", "y p", "x p", "z s"), []string{"1 x q", "3 x q", "2 y p", "1 x p", "3 x p"}},
	}
	for _, tc := range cases {
		got, err := Hash{}.Join(Exec{}, l, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != len(tc.want) {
			t.Fatalf("%s: %d rows, want %d", tc.name, got.Len(), len(tc.want))
		}
		for i, w := range tc.want {
			if row := relation.TupleOf(strings.Fields(w)...); !got.Tuple(i).Equal(row) {
				t.Errorf("%s: row %d is %v, want %v", tc.name, i, got.Tuple(i), row)
			}
		}
	}
}

// foldHash is the reference the binary plan must match: a fold of
// two-input Hash.Join over the pairs the plan picks in the given order,
// every intermediate a relation of values. step, when non-nil, sees each
// step's inputs and output.
func foldHash(x Exec, inputs []*relation.Relation, order Order, step func(l, r, out *relation.Relation)) (*relation.Relation, error) {
	pending := slices.Clone(inputs)
	for len(pending) > 1 {
		i, j := 0, 1
		if order == Greedy {
			i, j = pickPair(len(pending), func(a, b int) (bool, int) {
				return !pending[a].Scheme().Disjoint(pending[b].Scheme()), pending[a].Len() * pending[b].Len()
			})
		}
		joined, err := Hash{}.Join(x, pending[i], pending[j])
		if err != nil {
			return nil, err
		}
		if step != nil {
			step(pending[i], pending[j], joined)
		}
		pending = slices.Delete(pending, j, j+1)
		pending[i] = joined
	}
	return pending[0], nil
}

// chargeRecorder records, for each step of foldHash, what the binary plan
// charges for it: an intermediate its ids — four bytes per row per input
// it covers — and the last step, the answer, its values.
type chargeRecorder struct {
	covers map[*relation.Relation]int
	steps  []*relation.Relation
}

func (c *chargeRecorder) step(l, r, out *relation.Relation) {
	c.covers[out] = max(c.covers[l], 1) + max(c.covers[r], 1)
	c.steps = append(c.steps, out)
}

// charges returns the plan's total memory charge and its peak.
func (c *chargeRecorder) charges() (bytes int64, peak int) {
	for k, out := range c.steps {
		if k == len(c.steps)-1 {
			bytes += int64(out.Len()) * relation.RowBytes(out.Scheme().Len())
		} else {
			bytes += int64(out.Len()) * 4 * int64(c.covers[out])
		}
		peak = max(peak, out.Len())
	}
	return bytes, peak
}

// TestGreedyPlanChargesIdsNotValues: a greedy plan over four inputs of a
// cycle, whose intermediates outgrow its answer, is charged per
// intermediate row four bytes per input it covers and per answer row its
// values. A memory budget of exactly the sum of those charges lets it
// through and one byte less refuses it. The row budget's kill point and
// the span's peak are what they are for a fold of two-input joins.
func TestGreedyPlanChargesIdsNotValues(t *testing.T) {
	rels := []*relation.Relation{
		rel(t, "A B", "a1 b", "a2 b", "a3 b"),
		rel(t, "B C", "b c1", "b c2", "b c3"),
		rel(t, "C D", "c1 d", "c2 d", "c3 d"),
		rel(t, "A D", "a1 d", "a1 e", "a2 e", "a3 e", "a4 d", "a4 e", "a5 d", "a5 e", "a6 d", "a6 e"),
	}
	rec := &chargeRecorder{covers: map[*relation.Relation]int{}}
	sp := &obs.Span{}
	if _, err := foldHash(Exec{Span: sp}, rels, Greedy, rec.step); err != nil {
		t.Fatal(err)
	}
	charge, peak := rec.charges()
	if last := rec.steps[len(rec.steps)-1].Len(); len(rec.steps) < 3 || peak <= last {
		t.Fatalf("the plan's steps %d, peak %d, answer %d: the case proves nothing", len(rec.steps), peak, last)
	}
	t.Logf("%d steps, peak %d rows, charged %d bytes", len(rec.steps), peak, charge)
	run := func(limits governor.Limits) (*obs.Span, error) {
		sp := &obs.Span{}
		_, err := Multi(Exec{Gov: governor.New(context.Background(), limits), Span: sp}, NewPlan(rels...), Hash{}, Greedy)
		return sp, err
	}
	for budget, want := range map[int64]error{charge: nil, charge - 1: governor.ErrMemBudget} {
		if _, err := run(governor.Limits{MaxMemoryBytes: budget}); !errors.Is(err, want) {
			t.Errorf("under a memory budget of %d bytes (the charges sum to %d): want %v, got %v", budget, charge, want, err)
		}
	}
	for budget, want := range map[int]error{peak: nil, peak - 1: governor.ErrRowBudget} {
		got, err := run(governor.Limits{MaxIntermediateRows: budget})
		if !errors.Is(err, want) {
			t.Errorf("under a row budget of %d (the peak is %d): want %v, got %v", budget, peak, want, err)
		}
		if err == nil && (got.MaxIntermediate != peak || sp.MaxIntermediate != peak) {
			t.Errorf("span peak %d, the fold's %d, want %d", got.MaxIntermediate, sp.MaxIntermediate, peak)
		}
	}
}

func TestMultiEdgeCases(t *testing.T) {
	if _, err := Multi(Exec{}, NewPlan(), Hash{}, Greedy); err == nil {
		t.Error("Multi(nil) succeeded")
	}
	one := rel(t, "A", "1")
	got, err := Multi(Exec{}, NewPlan(one), Hash{}, Greedy)
	if err != nil || !got.Equal(one) {
		t.Errorf("Multi(single) = %v, %v", got, err)
	}
}

func TestMultiStats(t *testing.T) {
	// Star join: center C(A,B,X) with two big satellites; greedy should
	// avoid the cross product that sequential order performs.
	center := rel(t, "A B", "1 1", "2 2")
	satA := rel(t, "A", "1")
	satB := rel(t, "B", "2")
	var seqMetrics, greedyMetrics obs.Metrics
	// Sequential order satA * satB first: cross product of satellites.
	inputs := []*relation.Relation{satA, satB, center}
	if _, err := Multi(Exec{Metrics: &seqMetrics}, NewPlan(inputs...), Hash{}, Sequential); err != nil {
		t.Fatal(err)
	}
	if _, err := Multi(Exec{Metrics: &greedyMetrics}, NewPlan(inputs...), Hash{}, Greedy); err != nil {
		t.Fatal(err)
	}
	seq, greedy := seqMetrics.Snapshot(), greedyMetrics.Snapshot()
	if seq.Joins != 2 || greedy.Joins != 2 {
		t.Errorf("joins: seq=%d greedy=%d", seq.Joins, greedy.Joins)
	}
	if greedy.MaxIntermediate > seq.MaxIntermediate {
		t.Errorf("greedy max %d > sequential max %d", greedy.MaxIntermediate, seq.MaxIntermediate)
	}
}

func TestGreedyPrefersSharedAttributes(t *testing.T) {
	// Three relations where the two smallest share no attributes; greedy
	// must still prefer a shared-attribute pair over the cross product.
	a := rel(t, "A X", "1 u") // size 1
	b := rel(t, "B Y", "2 v") // size 1, disjoint from a
	c := rel(t, "A B", "1 2", "1 3", "9 9")
	var m obs.Metrics
	got, err := Multi(Exec{Metrics: &m}, NewPlan(a, b, c), Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	want := rel(t, "A X B Y", "1 u 2 v")
	if !got.Equal(want) {
		t.Errorf("got %v want %v", got.Sorted(), want.Sorted())
	}
	// The first join must have been a*c or b*c (shared), both of size <= 2,
	// so no intermediate exceeds 2.
	if snap := m.Snapshot(); snap.MaxIntermediate > 2 {
		t.Errorf("greedy performed a cross product first: %v", snap)
	}
}

func TestOrderByName(t *testing.T) {
	for _, o := range []Order{Sequential, Greedy} {
		got, err := OrderByName(o.String())
		if err != nil || got != o {
			t.Errorf("OrderByName(%q) = %v, %v", o.String(), got, err)
		}
	}
	if _, err := OrderByName("bogus"); err == nil {
		t.Error("OrderByName(bogus) succeeded")
	}
}

// TestZeroExecAllocatesNothing is the nil fast path as a test: joining
// under the zero Exec allocates what the join itself needs and nothing
// for a governor, metrics or span that are not there. Since the join
// counts before it materializes, what it needs is a constant number of
// flat slices for the table and the probe pass, the growth steps of the
// table's per-key slices, and the output's header slice and backing
// arrays — 54 measured for 4096 output tuples with every working array a
// make of its own (FreshScratch; 53 before they came from a scratch, 45
// before the join became the one-step case of the binary plan), where one
// make per output tuple took 4143 and the string-keyed join 18170.
func TestZeroExecAllocatesNothing(t *testing.T) {
	FreshScratch(t)
	l, r := skewedPair(256, 16)
	const ceiling = 64
	got := testing.AllocsPerRun(20, func() {
		if out, err := (Hash{}).Join(Exec{}, l, r); err != nil || out.Len() != 4096 {
			t.Fatal(out, err)
		}
	})
	t.Logf("Hash{}.Join(Exec{}, …) allocates %v times per join of 4096 output tuples", got)
	if got > ceiling {
		t.Errorf("Hash{}.Join(Exec{}, …) allocates %v times per join of 4096 output tuples, ceiling %d", got, ceiling)
	}
}

// skewedPair returns L(A,B) and R(B,C) of n rows each over keys distinct
// join keys: every key matches n/keys rows on either side.
func skewedPair(n, keys int) (l, r *relation.Relation) {
	l = relation.New(relation.MustScheme("A", "B"))
	r = relation.New(relation.MustScheme("B", "C"))
	for i := 0; i < n; i++ {
		l.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%keys)))
		r.MustAdd(relation.TupleOf(fmt.Sprintf("b%d", i%keys), fmt.Sprintf("c%d", i)))
	}
	return l, r
}

// TestOverBudgetJoinDiesBeforeItMaterializes: the budgets precede the
// allocation. A fully skewed 2000 × 2000 join — one key, four million
// matches — under a 10 000-row budget is killed by the first batch check
// of the count pass, which has seen 256 probe rows and 512 000 matches by
// then; it has allocated the build table and the probe pass's flat
// slices, a few bytes per input row, and not one output row (when the
// probe emitted as it went, those 512 000 matches were 37 MB of tuples
// before the check saw them). Every working array is a make of its own
// (FreshScratch), so that a reused scratch hides none of them. The memory
// budget is charged on the same count, and a budget of exactly the output
// lets a join through.
func TestOverBudgetJoinDiesBeforeItMaterializes(t *testing.T) {
	FreshScratch(t)
	l, r := skewedPair(2000, 1)
	alg := Hash{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gov := governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 10_000})
	_, err := alg.Join(Exec{Gov: gov}, l, r)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, governor.ErrRowBudget) {
		t.Fatalf("%s: want governor.ErrRowBudget, got %v", alg.Name(), err)
	}
	const perMatch = 3 * 16 // one output row of three values
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 512_000*perMatch/100 {
		t.Errorf("%s: the killed join allocated %d bytes; one output row per match seen would be %d", alg.Name(), spent, 512_000*perMatch)
	}
	gov = governor.New(context.Background(), governor.Limits{MaxMemoryBytes: 1 << 20})
	if _, err := alg.Join(Exec{Gov: gov}, l, r); !errors.Is(err, governor.ErrMemBudget) {
		t.Errorf("%s: want governor.ErrMemBudget under a 1 MB budget, got %v", alg.Name(), err)
	}
	sl, sr := skewedPair(200, 1)
	gov = governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 40_000})
	if out, err := alg.Join(Exec{Gov: gov}, sl, sr); err != nil || out.Len() != 40_000 {
		t.Errorf("%s: 200 × 200 under a budget of exactly its output: %v, %v", alg.Name(), out, err)
	}
	// The memory charge is what the output's rows occupy, 16 bytes a cell
	// and nothing per row: a budget of exactly that lets the join through,
	// one byte less refuses it.
	if got := relation.RowBytes(3); got != 48 {
		t.Fatalf("a row of three values is charged %d bytes, want 48", got)
	}
	charge := 40_000 * relation.RowBytes(3)
	for budget, want := range map[int64]error{charge: nil, charge - 1: governor.ErrMemBudget} {
		gov = governor.New(context.Background(), governor.Limits{MaxMemoryBytes: budget})
		if _, err := alg.Join(Exec{Gov: gov}, sl, sr); !errors.Is(err, want) {
			t.Errorf("%s: 200 × 200 under a memory budget of %d bytes: want %v, got %v", alg.Name(), budget, want, err)
		}
	}
}

// TestOverBudgetGenericJoinDiesWithinABatch: the generic join cannot
// count before it builds, so it charges its output to the memory budget a
// batch at a time as the search builds it. Under a budget of a tenth of
// its 40 000 rows it dies with ErrMemBudget holding at most one batch past
// the budget, not the whole output; its total charge is exactly what the
// rows occupy, so a budget of exactly that lets it through and one byte
// less refuses it, also when the last batch is partial (40 000 = 156 ×
// 256 + 64).
func TestOverBudgetGenericJoinDiesWithinABatch(t *testing.T) {
	l, r := skewedPair(200, 1)
	charge := 40_000 * relation.RowBytes(3)
	budget := charge / 10
	gov := governor.New(context.Background(), governor.Limits{MaxMemoryBytes: budget})
	p := NewPlan(l, r)
	shape := p.genericShape()
	tries := make([]sortedTrie, len(p.Inputs))
	for i, in := range p.Inputs {
		trie, err := trieOf(in, shape.cols[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		tries[i] = *trie
	}
	b := relation.NewBuilder(shape.out, -1)
	j := newGenericJoin(new(scratch), shape, tries, b)
	j.gov, j.built = gov, b
	j.search(0)
	if !errors.Is(j.err, governor.ErrMemBudget) {
		t.Fatalf("a search over a memory budget of a tenth of its output: want ErrMemBudget, got %v", j.err)
	}
	if built, most := b.Len(), int(budget/relation.RowBytes(3))+checkBatch; built > most {
		t.Errorf("the killed search built %d rows; the budget holds %d, one batch past it %d", built, budget/relation.RowBytes(3), most)
	}
	for budget, want := range map[int64]error{charge: nil, charge - 1: governor.ErrMemBudget} {
		gov := governor.New(context.Background(), governor.Limits{MaxMemoryBytes: budget})
		out, err := Generic{}.JoinAll(Exec{Gov: gov}, NewPlan(l, r))
		if !errors.Is(err, want) || err == nil && out.Len() != 40_000 {
			t.Errorf("200 × 200 generic join under a memory budget of %d bytes: want %v, got %v", budget, want, err)
		}
	}
}

// TestOnePassProducersAllocatePerRelation: the generic join and the
// semijoin allocate per flat slice and per growth step on 4096-row
// inputs — no trie row, no output row and no kept-row header of its own —
// with every working array a make of its own (FreshScratch).
func TestOnePassProducersAllocatePerRelation(t *testing.T) {
	FreshScratch(t)
	const rows = 4096
	l, r := skewedPair(rows, rows)
	for name, run := range map[string]func() (*relation.Relation, error){
		"Generic.JoinAll": func() (*relation.Relation, error) { return Generic{}.JoinAll(Exec{}, NewPlan(l, r)) },
		"Semijoin":        func() (*relation.Relation, error) { return Semijoin(l, r) },
	} {
		got := testing.AllocsPerRun(5, func() {
			if out, err := run(); err != nil || out.Len() != rows {
				t.Fatal(name, out, err)
			}
		})
		t.Logf("%s: %v allocations for %d rows", name, got, rows)
		if got > rows/16 {
			t.Errorf("%s allocates %v times for %d rows in and out, ceiling %d", name, got, rows, rows/16)
		}
	}
}

// rowSink records what a producer writes into it: Begin's count, and a
// copy of each row, until it has stop rows (0: all of them).
type rowSink struct {
	begun bool
	count int
	rows  []relation.Tuple
	stop  int
}

func (s *rowSink) Begin(_ relation.Scheme, rows int) bool {
	s.begun, s.count = true, rows
	return true
}

func (s *rowSink) Row(t relation.Tuple) bool {
	s.rows = append(s.rows, t.Clone())
	return s.stop == 0 || len(s.rows) < s.stop
}

// TestStreamHashPlanWritesSortedOrder: under Exec.Out the binary plan
// builds no answer. On random inputs over a three-letter alphabet — many
// rows share a value, and many rows share a source row — it announces the
// built answer's count and writes exactly its rows in SortedOrder, with
// the built plan's metrics and peak, in both orders; so does Yannakakis'
// greedy fallback on a cyclic node. A sink that declines a row stops the
// rows. A result cap or a row budget below the count fails before Begin.
// Also when every tuple hash collides.
func TestStreamHashPlanWritesSortedOrder(t *testing.T) {
	shapes := [][]string{
		{"A B", "B C", "A C"},          // a triangle: cyclic
		{"A B", "B C", "C D", "D A"},   // a four-cycle
		{"A B", "B C", "D"},            // a chain and a cartesian component
		{"A B C", "B C D", "A D", "C"}, // keys of two columns
		{"A B", "A B"},                 // one scheme twice
	}
	for _, collide := range []bool{false, true} {
		if collide {
			relation.CollideAllHashes(t)
		}
		rng := rand.New(rand.NewSource(43))
		for trial := 0; trial < 60; trial++ {
			shape := shapes[trial%len(shapes)]
			inputs := make([]*relation.Relation, len(shape))
			for i, sc := range shape {
				sc, err := relation.SchemeOf(sc)
				if err != nil {
					t.Fatal(err)
				}
				inputs[i] = randomRelation(rng, sc, 14)
			}
			for _, order := range []Order{Sequential, Greedy} {
				what := fmt.Sprintf("%v under %v, trial %d (collide %v)", shape, order, trial, collide)
				var builtM, writtenM obs.Metrics
				var c obs.Collector
				builtSp, writtenSp := c.Start(obs.OpJoin, "built"), c.Start(obs.OpJoin, "written")
				built, err := hashPlan(Exec{Metrics: &builtM, Span: builtSp}, inputs, order)
				if err != nil {
					t.Fatal(err)
				}
				var got rowSink
				if r, err := hashPlan(Exec{Metrics: &writtenM, Span: writtenSp, Out: &got}, inputs, order); r != nil || err != nil {
					t.Fatalf("%s: under Out the plan returned %v, %v; want no relation", what, r, err)
				}
				if !got.begun || got.count != built.Len() || !slices.EqualFunc(got.rows, built.Sorted(), relation.Tuple.Equal) {
					t.Fatalf("%s: announced %d rows and wrote %v; built %d rows, sorted %v", what, got.count, got.rows, built.Len(), built.Sorted())
				}
				if builtM.Snapshot() != writtenM.Snapshot() || builtSp.MaxIntermediate != writtenSp.MaxIntermediate {
					t.Errorf("%s: written metrics %+v, peak %d; built %+v, peak %d", what, writtenM.Snapshot(), writtenSp.MaxIntermediate, builtM.Snapshot(), builtSp.MaxIntermediate)
				}
				if built.Len() < 2 {
					continue
				}
				stopped := rowSink{stop: 1}
				if _, err := hashPlan(Exec{Out: &stopped}, inputs, order); err != nil || len(stopped.rows) != 1 {
					t.Errorf("%s: a sink that declines its second row got %d rows, %v", what, len(stopped.rows), err)
				}
				for _, limits := range []governor.Limits{{MaxRows: built.Len() - 1}, {MaxIntermediateRows: built.Len() - 1}} {
					var refused rowSink
					_, err := hashPlan(Exec{Gov: governor.New(context.Background(), limits), Out: &refused}, inputs, order)
					if err == nil || refused.begun {
						t.Errorf("%s under %+v: %v, begun %v; want a failure before Begin", what, limits, err, refused.begun)
					}
				}
			}
		}
		tri := []*relation.Relation{
			rel(t, "A B", "1 x", "2 x", "2 y", "3 y"),
			rel(t, "B C", "x p", "x q", "y p"),
			rel(t, "A C", "1 p", "2 q", "2 p", "3 p"),
		}
		built, err := Hash{}.joinAll(Exec{}, NewPlan(tri...), Greedy)
		if err != nil {
			t.Fatal(err)
		}
		var got rowSink
		if r, err := (Yannakakis{}).JoinAll(Exec{Out: &got}, NewPlan(tri...)); r != nil || err != nil || !slices.EqualFunc(got.rows, built.Sorted(), relation.Tuple.Equal) {
			t.Errorf("Yannakakis' fallback under Out: %v, %v, wrote %v; want %v", r, err, got.rows, built.Sorted())
		}
	}
}
