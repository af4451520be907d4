package join

import (
	"fmt"
	"slices"
	"strings"

	"relquery/internal/fault"
	"relquery/internal/relation"
)

// Order decides the sequence in which an n-ary join combines its inputs.
type Order int

const (
	// Sequential joins the inputs left to right as written — the paper's
	// literal reading of R₁ ∗ R₂ ∗ … ∗ R_k. Used by experiment E7 to expose
	// the inherent intermediate blow-up.
	Sequential Order = iota
	// Greedy repeatedly joins the pair whose schemes share attributes and
	// whose size product is smallest, falling back to the globally smallest
	// product when only cross products remain. A simple but effective
	// heuristic planner.
	Greedy
)

// String returns the order's flag name.
func (o Order) String() string {
	switch o {
	case Sequential:
		return "sequential"
	case Greedy:
		return "greedy"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// OrderByName parses an Order from its flag name.
func OrderByName(name string) (Order, error) {
	switch name {
	case "sequential":
		return Sequential, nil
	case "greedy":
		return Greedy, nil
	default:
		return 0, fmt.Errorf("join: unknown order %q (want sequential or greedy)", name)
	}
}

// Multi computes the natural join of the plan's inputs under x: in one
// pass for Generic and Yannakakis, and for Hash as the binary plan whose
// intermediates are row ids (hashPlan), its steps combined in the given
// order. Joining zero relations is an error (the neutral element — the
// relation over the empty scheme holding the empty tuple — is almost never
// what a caller wants); joining one relation returns it unchanged, folded
// into the intermediate statistics.
//
// Under x.Out every strategy writes its answer there and returns none
// (Exec.Out). A projected plan (Plan.Onto) answers π_onto of the join.
// Generic looks for one witness per output row and writes only the
// projection; Hash and Yannakakis join the inputs and then project,
// building their answer even under x.Out.
func Multi(x Exec, p *Plan, alg Algorithm, order Order) (*relation.Relation, error) {
	inputs := p.Inputs
	switch len(inputs) {
	case 0:
		return nil, fmt.Errorf("join: Multi requires at least one input")
	case 1:
		x.Metrics.ObserveIntermediate(inputs[0].Len())
		return p.project(x, inputs[0])
	}
	if _, search := alg.(Generic); search || p.onto == nil {
		return alg.joinAll(x, p, order)
	}
	x.Out = nil
	r, err := alg.joinAll(x, p, order)
	if err != nil {
		return nil, err
	}
	return p.project(x, r)
}

// project returns π_onto(r) of a projected plan, accounted as one more
// materialization; r itself otherwise.
func (p *Plan) project(x Exec, r *relation.Relation) (*relation.Relation, error) {
	if p.onto == nil {
		return r, nil
	}
	out, err := r.Project(*p.onto)
	if err != nil {
		return nil, err
	}
	x.Metrics.ObserveIntermediate(out.Len())
	return x.Materialized(out)
}

// pickPair chooses the next pair to join among n pending relations, of
// which pair(i, j) tells whether i and j share an attribute and the
// cost of joining them — the product of their sizes here, the estimated
// join size in the greedy simulation: among pairs that share one, the one
// with the smallest cost; if no pair does, the overall smallest cost (an
// unavoidable cross product). Ties go to the first pair in (i, j) order.
// Costs are never negative. Returns indices with i < j.
func pickPair[C int | float64](n int, pair func(i, j int) (shared bool, cost C)) (int, int) {
	bestI, bestJ := 0, 1
	bestShared := false
	bestCost := C(-1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			shared, cost := pair(i, j)
			better := false
			switch {
			case shared && !bestShared:
				better = true
			case shared == bestShared && (bestCost < 0 || cost < bestCost):
				better = true
			}
			if better {
				bestI, bestJ, bestShared, bestCost = i, j, shared, cost
			}
		}
	}
	return bestI, bestJ
}

// idBytes is what an intermediate of a binary plan holds per row per
// input it covers: one row id.
const idBytes = 4

// operand is one side of a step of a binary plan: a plan input, or an
// intermediate a step built. An intermediate holds no values: each of its
// rows is one row id into each input it covers, and its columns are refs
// into those inputs' rows, so a row of a φ_G intermediate — up to 37
// values, 592 bytes — is at most 8 ids, 32 bytes.
type operand struct {
	rels []*relation.Relation // the inputs covered; a row is one row of each
	// ids holds row r's row of rels[s] at ids[r*len(rels)+s]; nil for a
	// plan input, whose row r is its own row r.
	ids   []int32
	n     int            // rows
	attrs []int          // the columns' attribute numbers, in output order
	from  []relation.Ref // column c is column from[c].Col of rels[from[c].Src]'s row
	set   []uint64       // attrs as a bitset
}

// load sets dst[s] to row r's row of rels[s], for every source s.
func (o *operand) load(r int, dst []relation.Tuple) {
	if o.ids == nil {
		dst[0] = o.rels[0].Tuple(r)
		return
	}
	k := len(o.rels)
	for s, id := range o.ids[r*k : (r+1)*k] {
		dst[s] = o.rels[s].Tuple(int(id))
	}
}

// put writes row r's ids to the front of w and returns the rest of w.
func (o *operand) put(r int, w []int32) []int32 {
	if o.ids == nil {
		w[0] = int32(r)
		return w[1:]
	}
	k := len(o.rels)
	return w[copy(w, o.ids[r*k:(r+1)*k]):]
}

// fill sets row to the values of the row of o whose source row ids are
// ids, one per source.
func (o *operand) fill(ids []int32, row relation.Tuple) {
	for c, f := range o.from {
		row[c] = o.rels[f.Src].Tuple(int(ids[f.Src]))[f.Col]
	}
}

func (o *operand) has(a int) bool { return o.set[a/64]&(1<<(a%64)) != 0 }

// shares reports whether o and u have an attribute in common.
func (o *operand) shares(u *operand) bool {
	for w, bits := range o.set {
		if bits&u.set[w] != 0 {
			return true
		}
	}
	return false
}

// binaryPlan is one run of a binary plan for Hash over a node's inputs:
// each step builds a table on its smaller side, counts the output, and
// either writes it as row ids — an intermediate — or, at the last step,
// collects the answer's values from the input rows the ids name, or
// writes them to Exec.Out. The intermediates are the paper's blow-up; only
// the answer holds values, and a written one never holds them all.
type binaryPlan struct {
	x  Exec
	sc *scratch // the plan is its scratch's; its operands and ids are carved from it
	// One input row per source each: a build, a probe, a group's first row.
	build, probe, cand []relation.Tuple
	// The step at hand's table and each of its probe rows' first match
	// (-1 for none): every step reuses the arrays of the one before, and
	// the scratch keeps them for its next call.
	table idTable
	heads []int32
}

// hashPlan joins inputs (at least two) pairwise in the given order,
// build on the smaller side of each step, ties building left. Every step
// is the count-first hash join: the build pass, then a probe pass that
// counts the output — checked against the row budget and charged to the
// memory budget before it exists — then the output, probe row by probe
// row, each probe row's matches in build order, stitched in left, right
// order: the rows, and their order, that a fold of two-input hash joins
// over the same pairs writes. Only the charge differs: an intermediate is
// charged its ids, not values (Exec.counted).
func hashPlan(x Exec, inputs []*relation.Relation, order Order) (*relation.Relation, error) {
	pl, pending := newBinaryPlan(x, inputs)
	defer pl.sc.release()
	for len(pending) > 2 {
		i, j := 0, 1
		if order == Greedy {
			i, j = pickPair(len(pending), func(a, b int) (bool, int) {
				return pending[a].shares(&pending[b]), pending[a].n * pending[b].n
			})
		}
		joined, err := pl.intermediate(&pending[i], &pending[j])
		if err != nil {
			return nil, err
		}
		pending = slices.Delete(pending, j, j+1)
		pending[i] = joined
	}
	return pl.answer(&pending[0], &pending[1])
}

// newBinaryPlan returns the plan, on a scratch its caller releases, with
// one operand per input, numbering their attributes without a map: an
// attribute's number is its first position among all the inputs' columns.
func newBinaryPlan(x Exec, inputs []*relation.Relation) (*binaryPlan, []operand) {
	k, total, widest := len(inputs), 0, 0
	for _, in := range inputs {
		total += in.Scheme().Len()
		widest = max(widest, in.Scheme().Len())
	}
	words := (total + 63) / 64
	sc := takeScratch()
	pl := &sc.plan
	pl.x, pl.sc = x, sc
	pl.build, pl.probe, pl.cand = sc.tuples.take(k), sc.tuples.take(k), sc.tuples.take(k)
	identity := sc.refs.take(widest) // an input's own columns
	for c := range identity {
		identity[c] = relation.Ref{Col: c}
	}
	numbers, sets, ops := sc.ints.take(total), sc.words.take(k*words), sc.ops.take(k)
	base := 0
	for i, in := range inputs {
		sc := in.Scheme()
		o := &ops[i]
		*o = operand{
			rels: inputs[i : i+1 : i+1], n: in.Len(),
			attrs: numbers[base : base+sc.Len() : base+sc.Len()],
			from:  identity[:sc.Len():sc.Len()],
			set:   sets[i*words : (i+1)*words : (i+1)*words],
		}
		for c := range o.attrs {
			o.attrs[c] = base + c
			for _, prev := range ops[:i] {
				if at, ok := prev.rels[0].Scheme().Pos(sc.Attr(c)); ok {
					o.attrs[c] = prev.attrs[at]
					break
				}
			}
			a := o.attrs[c]
			o.set[a/64] |= 1 << (a % 64)
		}
		base += sc.Len()
	}
	return pl, ops
}

// step is one binary join of a plan, counted and not yet written; its
// table and probe heads are the plan's.
type step struct {
	out          operand // the output's sources and columns; no rows yet
	build, probe *operand
	buildIsLeft  bool
	rows         int // the output's cardinality
}

// join runs step l ∗ r up to its count: the table over the smaller side
// (ties build left), keyed on the shared attributes in l's column order,
// and one lookup per probe row, ticking the governor per row and checking
// the row budget per batch.
func (pl *binaryPlan) join(l, r *operand) (step, error) {
	fault.Hit(fault.JoinStart)
	x, sc := pl.x, pl.sc
	s := step{out: combine(sc, l, r), build: l, probe: r, buildIsLeft: true}
	keyL, keyR := sc.refs.take(len(l.attrs))[:0], sc.refs.take(len(l.attrs))[:0]
	for c, a := range l.attrs {
		if r.has(a) {
			keyL = append(keyL, l.from[c])
			keyR = append(keyR, r.from[slices.Index(r.attrs, a)])
		}
	}
	keyBuild, keyProbe := keyL, keyR
	if r.n < l.n {
		s.build, s.probe, s.buildIsLeft = r, l, false
		keyBuild, keyProbe = keyR, keyL
	}
	if err := pl.table.build(x.Gov, s.build, keyBuild, pl.build, pl.cand); err != nil {
		return step{}, err
	}
	pl.heads = slices.Grow(pl.heads[:0], s.probe.n)[:s.probe.n]
	for p := range pl.heads {
		if p%checkBatch == 0 {
			fault.Hit(fault.JoinBatch)
			if err := x.Gov.CheckRows(s.rows); err != nil {
				return step{}, err
			}
		}
		if err := x.Gov.Tick(); err != nil {
			return step{}, err
		}
		s.probe.load(p, pl.probe)
		first, n := pl.table.matches(relation.HashRefs(pl.probe, keyProbe), pl.probe, keyProbe)
		pl.heads[p] = int32(first)
		s.rows += n
	}
	x.Metrics.JoinWork(s.build.n, s.probe.n, s.rows)
	return s, nil
}

// combine returns the operand l ∗ r without rows: the sources of l, then
// those of r; the columns of l, then those of r that l does not have.
func combine(sc *scratch, l, r *operand) operand {
	kl, width := len(l.rels), len(l.attrs)+len(r.attrs)
	out := operand{
		rels:  append(append(sc.rels.take(kl + len(r.rels))[:0], l.rels...), r.rels...),
		attrs: append(sc.ints.take(width)[:0], l.attrs...),
		from:  append(sc.refs.take(width)[:0], l.from...),
		set:   sc.words.take(len(l.set)),
	}
	for c, a := range r.attrs {
		if !l.has(a) {
			f := r.from[c]
			f.Src += kl
			out.attrs, out.from = append(out.attrs, a), append(out.from, f)
		}
	}
	for w := range out.set {
		out.set[w] = l.set[w] | r.set[w]
	}
	return out
}

// intermediate joins l and r into an operand of row ids, charged for its
// ids before they exist.
func (pl *binaryPlan) intermediate(l, r *operand) (operand, error) {
	s, err := pl.join(l, r)
	if err != nil {
		return operand{}, err
	}
	out, x := s.out, pl.x
	k := len(out.rels)
	if err := x.counted(s.rows, int64(s.rows)*idBytes*int64(k)); err != nil {
		return operand{}, err
	}
	// Only a count the budget accepted becomes an intermediate.
	x.Metrics.ObserveJoin(s.rows)
	out.n, out.ids = s.rows, pl.sc.i32.take(s.rows*k)
	return out, pl.ids(s, out.ids)
}

// ids writes the row ids of s's output into w, one per source per row, in
// the order the step writes its rows: probe row by probe row, each probe
// row's matches in build order.
func (pl *binaryPlan) ids(s step, w []int32) error {
	for p := range pl.heads {
		for i := int(pl.heads[p]); i >= 0; i = pl.table.after(i) {
			// One probe row can match the entire build side under key
			// skew, so the loop ticks per output row.
			if err := pl.x.Gov.Tick(); err != nil {
				return err
			}
			if s.buildIsLeft {
				w = s.probe.put(p, s.build.put(i, w))
			} else {
				w = s.build.put(i, s.probe.put(p, w))
			}
		}
	}
	return nil
}

// answer joins l and r, the last step, into the node's answer, sized on
// the count like every hash join's output. A natural-join output row
// determines its source rows, so the answer is duplicate-free as written:
// no dedup, no index. Under x.Out the answer is written there (write) and
// none is returned; else it is a relation whose values are collected from
// the input rows the operands' ids name (relation.Builder.Collect).
func (pl *binaryPlan) answer(l, r *operand) (*relation.Relation, error) {
	s, err := pl.join(l, r)
	if err != nil {
		return nil, err
	}
	out, x := s.out, pl.x
	attrs := pl.sc.attrs.take(len(out.from)) // NewScheme copies them
	for c, f := range out.from {
		attrs[c] = out.rels[f.Src].Scheme().Attr(f.Col)
	}
	scheme, err := relation.NewScheme(attrs...)
	if err != nil {
		return nil, err
	}
	if err := x.Sized(s.rows, scheme.Len()); err != nil {
		return nil, err
	}
	x.Metrics.ObserveJoin(s.rows)
	if x.Out != nil {
		return nil, pl.write(s, scheme)
	}
	// The answer's sources: l's, then r's, as out numbers them.
	srcs := pl.sc.tuples.take(len(out.rels))
	left, right := srcs[:len(l.rels)], srcs[len(l.rels):]
	buildRow, probeRow := left, right
	if !s.buildIsLeft {
		buildRow, probeRow = right, left
	}
	b := relation.NewBuilder(scheme, s.rows)
	for p := range pl.heads {
		s.probe.load(p, probeRow)
		for i := int(pl.heads[p]); i >= 0; i = pl.table.after(i) {
			if err := x.Gov.Tick(); err != nil {
				return nil, err
			}
			s.build.load(i, buildRow)
			b.Collect(srcs, out.from)
		}
	}
	return b.Relation(), nil
}

// write writes the last step s's output, over scheme, to x.Out in sorted
// order, holding row ids and not values: the result cap is checked on the
// count and Begin told it before a row exists; then each row's ids, one
// per source (ids); then a permutation of the rows, sorted by the values
// their ids name; then the rows, through one reused tuple. Two rows that
// share a source row agree on all of its columns, so the sort compares
// ids before it reads a value. The write loop crosses a batch boundary
// every checkBatch rows, where the governor is checked: a deadline can
// still strike once rows have gone out.
func (pl *binaryPlan) write(s step, scheme relation.Scheme) error {
	x, out := pl.x, s.out
	if err := x.Gov.CheckOutput(s.rows); err != nil {
		return err
	}
	if !x.Out.Begin(scheme, s.rows) {
		return nil
	}
	k, rels, from := len(out.rels), out.rels, out.from
	ids := pl.sc.i32.take(s.rows * k)
	if err := pl.ids(s, ids); err != nil {
		return err
	}
	order := pl.sc.i32.take(s.rows)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := ids[int(a)*k:int(a+1)*k], ids[int(b)*k:int(b+1)*k]
		src := -1
		var ta, tb relation.Tuple
		for _, f := range from {
			ia, ib := ra[f.Src], rb[f.Src]
			if ia == ib {
				continue
			}
			if f.Src != src {
				src, ta, tb = f.Src, rels[f.Src].Tuple(int(ia)), rels[f.Src].Tuple(int(ib))
			}
			if c := strings.Compare(string(ta[f.Col]), string(tb[f.Col])); c != 0 {
				return c
			}
		}
		return 0
	})
	row := relation.Tuple(pl.sc.values.take(len(from)))
	for n, r := range order {
		if n%checkBatch == 0 {
			fault.Hit(fault.JoinBatch)
			if err := x.Gov.Check(); err != nil {
				return err
			}
		}
		out.fill(ids[int(r)*k:int(r+1)*k], row)
		if !x.Out.Row(row) {
			return nil
		}
	}
	return nil
}
