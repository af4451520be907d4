package join

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// Generic is a worst-case-optimal n-ary natural join in the
// NPRR/LeapFrog-TrieJoin family ("Worst-case optimal join algorithms",
// Ngo–Porat–Ré–Rudra; "Leapfrog Triejoin", Veldhuizen): instead of
// combining relations pairwise, it fixes one global attribute order and
// extends a partial binding one attribute at a time, intersecting the
// candidate values of every relation containing that attribute. A binding
// survives only while every relation still has matching tuples, so the
// algorithm never materializes anything larger than the final output —
// its running time is O(AGM bound) up to log factors, which is exactly
// the ceiling internal/join/agm.go computes.
//
// This is the antidote to the paper's Lemma 1 phenomenon: Cosmadakis'
// gadget queries force every binary join tree through an intermediate
// exponentially larger than input and output, but the n-ary output itself
// stays small, so the attribute-at-a-time join side-steps the blow-up
// entirely (experiment E7, BENCH_wcoj.txt).
//
// The global attribute order is the output scheme's column order, and the
// search walks each attribute's values in ascending order, so a complete
// binding is the output row itself and the answer is born sorted
// (relation.Builder.SortedRelation). A projected node (Plan.Onto) searches
// in the same order, but once the projection's last attribute is bound it
// looks for one witness over the rest and backtracks, and it writes only
// the projection: the node never holds more than its output. When an
// attribute outside the projection comes before that level, two bindings
// can write one output row, and the answer keeps the first (distinct).
// Binding the projection first would need no dedup, but the order is the
// one that stays fast: any order keeps the work within the full join's
// AGM bound (Ngo–Ré–Rudra), yet binding φ_G's Y columns first is
// exponential where the join's order is not (EXPERIMENTS.md, "One
// projected join node"). On an acyclic path with a dangling hub it is quadratic,
// because dead rows reach the search; the auto selector sends such a node
// to Yannakakis, whose tree join runs this same search over the rows its
// full reducer left alive (EXPERIMENTS.md, "One search").
//
// Each relation is indexed as a sorted trie: its tuples sorted
// lexicographically with their columns read in the global attribute order
// — views of the relation's own rows in sorted order, no value copied, and
// a fact of the relation (trieOf): the next join over it in the same
// attribute order sorts nothing. A partial binding then corresponds to a
// contiguous range of the sorted rows per relation, and intersecting a
// new attribute is a walk over the distinct values of the smallest range
// with binary-search narrowing in the others.
//
// Metrics: built counts the rows indexed into sorted tries, whether this
// join sorted them or found them sorted, probed counts candidate values
// examined, plus the wcoj candidate/intersection counters, which JoinAll
// also records on the span. The governor is ticked during a trie's first
// construction and once per candidate value of the binding search, with a
// row-budget check and a memory charge for the batch just built as output
// bindings accumulate, so even a search that stays under the AGM bound
// dies promptly on cancel or budget violation, at most a batch of rows
// past its budget.
type Generic struct{}

// Name implements Algorithm.
func (Generic) Name() string { return "wcoj" }

func (g Generic) joinAll(x Exec, p *Plan, _ Order) (*relation.Relation, error) {
	return g.JoinAll(x, p)
}

// JoinAll joins all of the plan's inputs in one attribute-at-a-time pass,
// projected when the plan is (Plan.Onto). Like Multi, joining zero
// relations is an error and a single relation passes through unchanged.
func (Generic) JoinAll(x Exec, p *Plan) (*relation.Relation, error) {
	fault.Hit(fault.JoinStart)
	inputs := p.Inputs
	switch len(inputs) {
	case 0:
		return nil, fmt.Errorf("join: JoinAll requires at least one input")
	case 1:
		return inputs[0], nil
	}
	for _, r := range inputs {
		if r.Empty() {
			x.Metrics.ObserveJoin(0)
			return x.Materialized(relation.New(p.out()))
		}
	}

	sc := takeScratch()
	defer sc.release()
	shape := p.genericShape()
	tries, indexed := sc.tries.take(len(inputs)), 0
	for i, r := range inputs {
		t, err := trieOf(r, shape.cols[i], x.Gov)
		if err != nil {
			return nil, err
		}
		tries[i] = *t
		indexed += r.Len()
	}
	var b *relation.Builder
	var sink relation.Sink
	switch {
	case shape.width > shape.out.Len():
		sink = distinct{relation.New(shape.out)}
	case x.Out != nil && shape.proj == nil:
		// Each row written once and in order: it goes out as it is found,
		// and the count is known after the last.
		if !x.Out.Begin(shape.out, -1) {
			return nil, nil
		}
		sc.tally = tally{Sink: x.Out}
		sink = &sc.tally
	default:
		b = relation.NewBuilder(shape.out, -1)
		sink = b
	}
	j := newGenericJoin(sc, shape, tries, sink)
	j.gov, j.built = x.Gov, sink.(interface{ Len() int })
	j.search(0)
	if j.err != nil && !errors.Is(j.err, errStopped) {
		return nil, j.err
	}

	var out *relation.Relation
	switch d, dedup := sink.(distinct); {
	case dedup:
		out = d.Relation
	case b == nil: // written to x.Out
	case shape.proj == nil: // the output leads the order, in its own order
		out = b.SortedRelation()
	default:
		out = b.Relation()
	}
	total := j.built.Len()
	x.Metrics.JoinWork(indexed, j.candidates, total)
	x.Metrics.ObserveJoin(total)
	x.Metrics.WCOJ(j.candidates, j.intersections)
	x.Span.SetWCOJ(j.candidates, j.intersections)
	// The search charged every whole batch as it built it.
	if err := x.grown(total, total-total%checkBatch, shape.out.Len()); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, x.Gov.CheckOutput(total)
	}
	return out, nil
}

// tally is x.Out as the generic join's sink: it counts the rows written,
// which the search checks and charges batch by batch as if it built them.
type tally struct {
	relation.Sink
	n int
}

func (t *tally) Row(row relation.Tuple) bool { t.n++; return t.Sink.Row(row) }
func (t *tally) Len() int                    { return t.n }

// distinct is the answer of a projected node whose order binds an
// attribute outside the projection before the projection's last one, so
// that two bindings can write one output row: it keeps the first
// (Relation.Add copies it). The answer is the set.
type distinct struct{ *relation.Relation }

func (distinct) Begin(relation.Scheme, int) bool { return true }
func (d distinct) Row(t relation.Tuple) bool {
	_, err := d.Add(t) // t is over the answer's scheme: no arity error
	return err == nil
}

// unionScheme returns the output scheme of joining inputs: the
// left-to-right union, the column layout of a sequential binary plan.
func unionScheme(inputs []*relation.Relation) relation.Scheme {
	n := 0
	for _, r := range inputs {
		n += r.Scheme().Len()
	}
	attrs := make([]relation.Attribute, 0, n)
	for i, r := range inputs {
		sc := r.Scheme()
	next:
		for c := 0; c < sc.Len(); c++ {
			a := sc.Attr(c)
			for _, l := range inputs[:i] {
				if l.Scheme().Has(a) {
					continue next
				}
			}
			attrs = append(attrs, a)
		}
	}
	return relation.MustScheme(attrs...)
}

// genericShape is what the generic join derives from the node's schemes
// and its output scheme alone, so a node's Facts holds it
// (Plan.genericShape, and the tree join's treeShape) and a warm plan
// derives none of it again: the global attribute order, the output scheme
// — all of it but in a projected node — each input's trie levels, and the
// search's index maps over the order. Read-only once built.
type genericShape struct {
	order, out relation.Scheme
	// width is the number of levels up to the last that binds an output
	// attribute: past it the search wants one witness. proj is each output
	// column's level, nil when the output is the order's first attributes
	// in its own order.
	width int
	proj  []int
	cols  [][]int // input -> its columns in the attribute order: its trie's levels
	// Level k of the search binds out.Attr(k). The inputs whose scheme
	// contains it are parts[at[k]:at[k+1]], and depth[at[k]+i] is its trie
	// level in input parts[at[k]+i]. The levels of every input, at, parts
	// and depth are carved from one array.
	at, parts, depth []int
}

// genericShape returns the generic join's shape of the plan's node,
// computing it on the first read like every fact: in the order of the
// inputs' left-to-right union, projected or not.
func (p *Plan) genericShape() *genericShape {
	f := p.facts
	f.genericShapeOnce.Do(func() {
		order := unionScheme(p.Inputs)
		out := order
		if p.onto != nil {
			out = *p.onto
		}
		s := newGenericShape(SchemesOf(p.Inputs), order, out)
		f.genericShape = &s
	})
	return f.genericShape
}

// newGenericShape returns the shape of a search over inputs of the given
// schemes in the column order of order, which holds every attribute of
// every scheme, writing out, a subset of them: the generic join's own
// order is the inputs' left-to-right union, the tree join's its blocks in
// preorder (treeShape).
func newGenericShape(schemes []relation.Scheme, order, out relation.Scheme) genericShape {
	n := 0 // (input, attribute) incidences: the trie levels of all inputs
	for _, sc := range schemes {
		n += sc.Len()
	}
	s := genericShape{order: order, out: out, cols: make([][]int, len(schemes))}
	leads := true // out is order's first attributes, in its own order
	for i := 0; i < out.Len(); i++ {
		k, _ := order.Pos(out.Attr(i))
		s.width, leads = max(s.width, k+1), leads && k == i
	}
	if !leads {
		s.proj = make([]int, out.Len())
		for i := range s.proj {
			s.proj[i], _ = order.Pos(out.Attr(i))
		}
	}
	flat := make([]int, 3*n+order.Len()+1)
	s.parts, s.depth, s.at, flat = flat[:n], flat[n:2*n], flat[2*n:2*n+order.Len()+1], flat[2*n+order.Len()+1:]
	for i, sc := range schemes {
		s.cols[i], flat = flat[:0:sc.Len()], flat[sc.Len():]
	}
	// A trie's levels follow the global order, so the level of an
	// attribute in a trie is the number of earlier attributes it also has.
	m := 0
	for k := 0; k < order.Len(); k++ {
		s.at[k] = m
		for i, sc := range schemes {
			if c, ok := sc.Pos(order.Attr(k)); ok {
				s.parts[m], s.depth[m] = i, len(s.cols[i])
				s.cols[i] = append(s.cols[i], c)
				m++
			}
		}
	}
	s.at[order.Len()] = m
	return s
}

// sortedTrie is one relation's trie view: views of its rows, sorted
// lexicographically by the columns cols — the relation's columns in the
// global attribute order — so every partial binding corresponds to a
// contiguous range of rows and each trie level is a sorted value column,
// read in place as rows[i][cols[d]]. Read-only once built.
//
// The trie keeps a view per row, where a relation keeps none: the binding
// search is binary-search probes and little else, and a probe through a
// view is two loads where one through the relation's row store locates a
// chunk first. Held as a permutation of row positions (4 bytes a row
// instead of 24), reading a probe was 39 % of a warm search's CPU
// profile, 11 % of it locating the chunk.
type sortedTrie struct {
	cols []int            // trie level -> column of the relation; the shape's, not to be written
	rows []relation.Tuple // sorted position -> a row of the relation
}

// at returns the value at trie level d of the i-th row in sorted order.
func (t *sortedTrie) at(i, d int) relation.Value { return t.rows[i][t.cols[d]] }

// Bytes is what the trie holds: a view per row.
func (t *sortedTrie) Bytes() int64 {
	return int64(unsafe.Sizeof(relation.Tuple(nil))) * int64(cap(t.rows))
}

// trieOf is newSortedTrie as a fact of r: built on first use, ticking gov,
// and memoized on r (relation.Path), so every later join over r whose
// attribute order reads r's columns the same way — the next request over a
// catalog relation or a projection of one — finds it sorted.
func trieOf(r *relation.Relation, cols []int, gov *governor.Governor) (*sortedTrie, error) {
	return relation.Path(r, cols, func() (*sortedTrie, error) { return newSortedTrie(r, cols, gov) })
}

func newSortedTrie(r *relation.Relation, cols []int, gov *governor.Governor) (*sortedTrie, error) {
	t := &sortedTrie{cols: cols, rows: make([]relation.Tuple, r.Len())}
	for i := range t.rows {
		if err := gov.Tick(); err != nil {
			return nil, err
		}
		t.rows[i] = r.Tuple(i)
	}
	t.sort()
	return t, nil
}

// sort orders the trie's rows lexicographically by its columns. They
// cover every column of the relation and its rows are distinct, so the
// order is total: an unstable sort is deterministic.
func (t *sortedTrie) sort() {
	slices.SortFunc(t.rows, func(a, b relation.Tuple) int {
		for _, c := range t.cols {
			if a[c] != b[c] {
				return strings.Compare(string(a[c]), string(b[c]))
			}
		}
		return 0
	})
}

// trieRange is a half-open row range [lo, hi) of one trie — the tuples
// compatible with the current partial binding.
type trieRange struct{ lo, hi int }

// genericJoin is the state of one attribute-at-a-time binding search
// over its node's shape.
type genericJoin struct {
	shape  *genericShape
	tries  []sortedTrie // copies of the tries' headers
	ranges []trieRange  // current range per trie
	// saved[at[k]+i] is the range of trie parts[at[k]+i] on entry to level
	// k, restored on the way out: level k is on the recursion stack at
	// most once. Carved from one array with ranges.
	saved []trieRange
	bind  []relation.Value
	// found latches the witness of the output row just written: the levels
	// past the shape's width stop their walk, and the last level before it
	// clears it and goes on.
	found bool
	row   relation.Tuple // the output row, when the shape projects columns
	// out receives every output row: the tree join's sink of exactly as
	// many rows as it counted and charged to the budgets before the
	// search, or the generic join's answer of a count unknown until the
	// search ends — built, or written to Exec.Out — whose rows built
	// reports and are checked and charged batch by batch as it grows.
	out   relation.Sink
	built interface{ Len() int }
	rows  int

	candidates    int
	intersections int

	// gov is the search's cooperative checkpoint; err is the abort
	// latch — once set, every recursion level unwinds immediately.
	gov *governor.Governor
	err error
}

// errStopped latches a search whose sink declined a row.
var errStopped = errors.New("join: search stopped")

// newGenericJoin returns the search over tries in the order of shape,
// writing each binding into out, its ranges and binding taken from sc.
func newGenericJoin(sc *scratch, shape *genericShape, tries []sortedTrie, out relation.Sink) genericJoin {
	flat := sc.ranges.take(len(tries) + len(shape.parts))
	ranges := flat[:len(tries)]
	for i, tr := range tries {
		ranges[i] = trieRange{0, len(tr.rows)}
	}
	j := genericJoin{
		shape:  shape,
		tries:  tries,
		ranges: ranges,
		saved:  flat[len(tries):],
		bind:   sc.values.take(shape.order.Len()),
		out:    out,
	}
	if shape.proj != nil {
		j.row = sc.values.take(len(shape.proj))
	}
	return j
}

// search extends the binding with the k-th attribute: it walks the
// distinct candidate values of the relation with the smallest compatible
// range and narrows every other relation containing the attribute by
// binary search, extending the binding only while all of them stay
// non-empty. A governor violation latches j.err and unwinds the whole
// recursion.
func (j *genericJoin) search(k int) {
	if j.err != nil {
		return
	}
	if k == len(j.bind) { // no attribute at all: the empty row
		j.emit()
		return
	}
	lv, end := j.shape.at[k], j.shape.at[k+1]
	parts, depth, saved := j.shape.parts[lv:end], j.shape.depth[lv:end], j.saved[lv:end]
	fault.Hit(fault.WCOJSearch)

	seedIdx := 0
	for i, p := range parts {
		saved[i] = j.ranges[p]
		if w, best := saved[i].hi-saved[i].lo, saved[seedIdx].hi-saved[seedIdx].lo; w < best {
			seedIdx = i
		}
	}
	seed := parts[seedIdx]
	st := &j.tries[seed]
	d := depth[seedIdx]
	j.intersections++

	lo, hi := saved[seedIdx].lo, saved[seedIdx].hi
	for lo < hi {
		if j.err = j.gov.Tick(); j.err != nil {
			return
		}
		v := st.at(lo, d)
		vhi := upperBound(st, lo, hi, d, v)
		j.candidates++

		ok := true
		for i, p := range parts {
			if p == seed {
				j.ranges[p] = trieRange{lo, vhi}
				continue
			}
			tp, dp := &j.tries[p], depth[i]
			nlo := lowerBound(tp, saved[i].lo, saved[i].hi, dp, v)
			if ok = nlo < saved[i].hi && tp.at(nlo, dp) == v; !ok {
				break
			}
			j.ranges[p] = trieRange{nlo, upperBound(tp, nlo, saved[i].hi, dp, v)}
		}
		if ok {
			j.bind[k] = v
			if k+1 < len(j.bind) {
				j.search(k + 1)
			} else {
				j.emit()
			}
			if j.err != nil {
				return
			}
			if j.found { // the binding completed an output row
				if k >= j.shape.width {
					break // a witness level: one witness is enough
				}
				j.found = false
			}
		}
		lo = vhi
	}
	for i, p := range parts {
		j.ranges[p] = saved[i]
	}
}

// emit writes the output row of the complete binding into the sink, its
// first witness latching found. When the output leads the order in its own
// order the row is the binding's prefix, each written once, and the result
// assembles without deduplication, in lexicographic order.
func (j *genericJoin) emit() {
	s := j.shape
	j.found = s.width < len(j.bind)
	row := j.bind[:s.out.Len()]
	if s.proj != nil {
		row = j.row
		for i, k := range s.proj {
			row[i] = j.bind[k]
		}
	}
	if !j.out.Row(row) {
		j.err = errStopped
		return
	}
	if j.built == nil {
		return
	}
	// A distinct answer grows by the rows it kept.
	if n := j.built.Len(); n > j.rows {
		if j.rows = n; n%checkBatch == 0 {
			if j.err = j.gov.CheckRows(n); j.err == nil {
				j.err = j.gov.ChargeBytes(checkBatch * relation.RowBytes(len(row)))
			}
		}
	}
}

// lowerBound returns the first index in [lo, hi) whose column-d value is
// ≥ v (hi when none).
func lowerBound(t *sortedTrie, lo, hi, d int, v relation.Value) int {
	return lo + sort.Search(hi-lo, func(i int) bool { return t.at(lo+i, d) >= v })
}

// upperBound returns the first index in (lo, hi) whose column-d value is
// > v, or hi; the value at lo must be v, and [lo, hi) must agree on the
// trie's earlier levels, as every range of the search does. It gallops
// from lo, so the cost is logarithmic in the rows holding v, not in the
// range; at the trie's last level, where the relation's rows are
// distinct, v's run is one row and costs no comparison.
func upperBound(t *sortedTrie, lo, hi, d int, v relation.Value) int {
	if d == len(t.cols)-1 {
		return lo + 1
	}
	step := 1
	for lo+step < hi && t.at(lo+step, d) == v {
		lo += step
		step *= 2
	}
	hi = min(lo+step, hi) // the value at lo is v, and the answer is in (lo, hi]
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return t.at(lo+1+i, d) != v })
}
