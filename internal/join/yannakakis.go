package join

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"relquery/internal/fault"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// Yannakakis evaluates α-acyclic n-ary natural joins with Yannakakis'
// algorithm: GYO ear removal yields a join tree, a leaf-to-root plus
// root-to-leaf semijoin sweep (the "full reducer") deletes every dangling
// tuple, and the reduced relations are then joined. After full reduction
// every tuple of every relation extends to at least one output tuple: the
// output is counted along the tree, and then written by the generic
// join's search over the live rows in a column order the tree fixes, which
// meets no dead end — no intermediate relation at all, and evaluation
// linear in input plus output up to the search's log, the Durand–Grandjean
// tractable frontier of exactly the problem the paper proves hard for
// general (cyclic) queries.
//
// The contrast with the other strategies: the greedy binary planner can
// be forced to materialize dangling combinations exponentially larger
// than the output, and the worst-case-optimal Generic join, while never
// exceeding the AGM bound, lets dangling rows into its search. On acyclic
// inputs Yannakakis does neither — semijoins only shrink, and the one
// search sees only rows of the output.
//
// On a cyclic hypergraph the algorithm does not apply — its output bound
// holds on acyclic hypergraphs only — and JoinAll runs the engine's one
// binary plan instead: Hash's greedy plan, whose intermediates are row
// ids (hashPlan). That is sound for any join, just without the
// output-boundedness guarantee, so the type is safe to force on arbitrary
// queries via -join=yannakakis; the span still says cyclic.
//
// Metrics: each semijoin pass's surviving cardinality, one join whose
// built side is the reduced non-root rows and whose probed side the
// reduced root rows, and the yannakakis join counter; JoinAll also records
// the GYO verdict and the full reducer's effort on the span. The governor
// is ticked per row in every pass and per candidate of the search, so the
// sweeps, the count and the search abort at tuple granularity, and every semijoin pass and the
// output go through Exec.Sized — which is what makes the
// output-boundedness visible in, and enforced on, the trace.
type Yannakakis struct{}

// Name implements Algorithm.
func (Yannakakis) Name() string { return "yannakakis" }

func (y Yannakakis) joinAll(x Exec, p *Plan, _ Order) (*relation.Relation, error) {
	return y.JoinAll(x, p)
}

// JoinAll joins all of the plan's inputs along its GYO join tree,
// recording the verdict and the full reducer's effort on the span; a
// cyclic plan's inputs it joins on the greedy hash plan. Like
// Multi, joining zero relations is an error and a single relation passes
// through unchanged.
func (Yannakakis) JoinAll(x Exec, p *Plan) (*relation.Relation, error) {
	inputs := p.Inputs
	switch len(inputs) {
	case 0:
		return nil, fmt.Errorf("join: JoinAll requires at least one input")
	case 1:
		return inputs[0], nil
	}
	if _, ok := p.JoinTree(); !ok {
		x.Span.SetStructure(obs.StructureCyclic)
		return hashPlan(x, inputs, Greedy)
	}
	x.Span.SetStructure(obs.StructureAcyclic)
	out, semijoins, reducedRows, err := joinTree(x, p)
	if err != nil {
		return nil, err
	}
	x.Span.SetYannakakis(semijoins, reducedRows)
	return out, nil
}

// joinTree joins the inputs of p, an acyclic node, along its join tree
// (treeJoin): mark deletes every dangling tuple, count learns the
// output's cardinality — and runs the row check and the byte charge on it
// — before an output row exists, and the generic join's search over the
// live rows writes the output once, at that size: into a relation it
// returns or, under x.Out, into that sink, returning none. It also returns the
// number of semijoin passes and the total cardinality surviving them (the
// "semijoin-pass cardinality" EXPLAIN ANALYZE reports; the inputs' total
// minus this is the dangling tuples removed).
func joinTree(x Exec, p *Plan) (out *relation.Relation, semijoins, reducedRows int, err error) {
	fault.Hit(fault.JoinStart)
	if err := x.Gov.Check(); err != nil {
		return nil, 0, 0, err
	}
	tree, _ := p.JoinTree()
	root, shape, sc := tree.Root(), p.treeShape(), takeScratch()
	defer sc.release()
	t, err := newTreeJoin(sc, x, p.Inputs, tree, shape)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := t.mark(); err != nil {
		return nil, 0, 0, err
	}
	for _, in := range t.in {
		reducedRows += in.rows
	}
	total, err := t.count()
	if err != nil {
		return nil, 0, 0, err
	}
	x.Metrics.JoinWork(reducedRows-t.in[root].rows, t.in[root].rows, total)
	if total == math.MaxInt {
		// More rows than an int counts: over any budget there is, and not
		// a size to ask the allocator for when there is none.
		if err := x.Gov.CheckRows(total); err != nil {
			return nil, 0, 0, err
		}
		return nil, 0, 0, fmt.Errorf("join: the output's cardinality overflows int")
	}
	if err := x.Sized(total, shape.out.Len()); err != nil {
		return nil, 0, 0, err
	}
	// Only a count the budget accepted becomes an intermediate.
	x.Metrics.ObserveJoin(total)
	var b *relation.Builder
	sink := x.Out
	if sink == nil {
		b = new(relation.Builder)
		sink = b
	} else if err := x.Gov.CheckOutput(total); err != nil {
		// The answer goes out as it is found: the result cap is checked
		// on the count, before the first row.
		return nil, 0, 0, err
	}
	if err := t.search(total, sink); err != nil {
		return nil, 0, 0, err
	}
	x.Metrics.Yannakakis()
	if b != nil {
		out = b.SortedRelation()
	}
	return out, t.semijoins, reducedRows, nil
}

// treeShape is what the tree join derives from the node's schemes and
// join tree alone, so a node's Facts holds it (Plan.treeShape) and a warm
// plan derives none of it again: each input's children, each tree edge's
// key, and the output scheme with the search's maps over it. Read-only
// once built.
//
// The output's columns come in blocks, one per input in preorder: the
// root's scheme, then each child's subtree in turn, children in
// ear-removal order, a child contributing the attributes it does not
// share with its parent. By the running-intersection property an
// attribute a child shares with anything outside its subtree is in its
// parent, so the blocks partition the columns, and every input's
// attributes outside its own block are in its parent's scheme. That is
// the order the search binds attributes in: an input's block is reached
// only once its parent's row is fixed.
type treeShape struct {
	genericShape
	kids [][]int // input -> its children in the tree, in ear-removal order
	// key[i] and childKey[i] are the positions of the attributes input i
	// shares with its parent, in the parent's scheme and in i's; unused at
	// the root.
	key, childKey []keyCols
}

func newTreeShape(schemes []relation.Scheme, tree *JoinTree) *treeShape {
	n := len(schemes)
	s := &treeShape{kids: make([][]int, n), key: make([]keyCols, n), childKey: make([]keyCols, n)}
	// The children lists are carved from one array of n-1 children.
	flat := make([]int, 0, n)
	for p := range s.kids {
		start := len(flat)
		for _, i := range tree.Order {
			if tree.Parent[i] == p {
				flat = append(flat, i)
			}
		}
		s.kids[p] = flat[start:len(flat):len(flat)]
	}
	for _, i := range tree.Order {
		p := tree.Parent[i]
		if p < 0 {
			continue
		}
		for c := 0; c < schemes[p].Len(); c++ {
			if at, ok := schemes[i].Pos(schemes[p].Attr(c)); ok {
				s.key[i], s.childKey[i] = append(s.key[i], c), append(s.childKey[i], at)
			}
		}
	}
	// Uniting each subtree into its parent along the ear-removal order,
	// children before their parent and the root last, lays the blocks out
	// in preorder.
	acc := slices.Clone(schemes)
	for _, i := range tree.Order {
		if p := tree.Parent[i]; p >= 0 {
			acc[p] = acc[p].Union(acc[i])
		} else {
			s.genericShape = newGenericShape(schemes, acc[i], acc[i])
		}
	}
	return s
}

// treeShape returns the tree join's shape of the plan's node, which must
// be acyclic, computing it on the first read like every fact.
func (p *Plan) treeShape() *treeShape {
	f := p.facts
	f.treeShapeOnce.Do(func() {
		tree, _ := p.JoinTree()
		f.treeShape = newTreeShape(SchemesOf(p.Inputs), tree)
	})
	return f.treeShape
}

// treeJoin is one evaluation of an acyclic join along its join tree, and
// the owner of everything the passes share. Nothing a pass produces is a
// relation: a deleted tuple is a bit set in its input's dead set. Each
// tree edge has one hash table — the child's rows, all of them, grouped
// on the attributes it shares with its parent — and the table is a fact
// of the child relation (edgeTable), not of the request: the next
// evaluation over the same relation finds it built.
//
// What the request keeps follows the rows that survive, not the rows the
// passes scan: a bit per row, a bit or a number per group of a child's
// table, and, for the rows that reach the output only, the group each
// joins in every child's table (input.link). A node's children are probed
// in one sweep per direction, and no row of the root is probed twice.
// Each pass walks a group's chain at most once, skipping the rows that
// died before it, so the dead rows a shared table holds cost each pass at
// most one step apiece: no walk repeats per parent row — the output is
// written by a search over the live rows alone (search), not by walking
// the groups.
type treeJoin struct {
	x          Exec
	sc         *scratch // what the evaluation keeps is carved from it
	rels       []*relation.Relation
	tree       *JoinTree
	shape      *treeShape
	in         []input // per input
	killed     []int32 // per child of the node an up sweep is over: the rows it deleted
	semijoins  int
	candidates int // values the search examined
}

// input is what one evaluation keeps of one input of the tree join.
type input struct {
	dead  bitset     // the rows a pass has deleted
	rows  int        // how many it has not
	table *hashTable // the rows grouped on the attributes shared with the parent; nil at the root
	// A leaf's rows die in whole groups, and only in its down pass: flag
	// marks the groups a live parent row joins, and a live group's count
	// is its size. An inner node's count is per group instead: after its
	// parent's up sweep, 1 when the group holds a live row; after its
	// down pass, 1 when a live parent row joins the group and 0 when none
	// does; after the count pass, the number of output rows its subtree
	// contributes per parent row joining it. Neither at the root.
	flag  bitset
	count []int
	// link is, for each live row in row order once the rows are final,
	// its group in each child's table, children in the shape's order: the
	// root's kept by its up sweep, an inner node's by its down sweep.
	// rank counts an inner node's live rows before each 64-row word, for
	// the count pass, which walks chains, to find a row's links (at).
	link, rank []int32
}

// newTreeJoin returns an evaluation with every row alive, looking up
// each edge's table — building it on first use — since what the
// evaluation keeps per group is sized by the tables: dead sets and the
// leaves' flags in words, the inner nodes' ranks, the sweeps' counters
// and the root's links for its first relation.SizeSample rows in int32,
// the inner nodes' counts in int, all taken from sc.
func newTreeJoin(sc *scratch, x Exec, rels []*relation.Relation, tree *JoinTree, shape *treeShape) (treeJoin, error) {
	t := treeJoin{x: x, sc: sc, rels: rels, tree: tree, shape: shape, in: sc.ins.take(len(rels)), killed: sc.i32.take(len(rels))}
	for _, i := range tree.Order {
		in, n, kids := &t.in[i], rels[i].Len(), len(shape.kids[i])
		in.dead, in.rows = sc.words.take(wordsFor(n)), n
		if i == tree.Root() {
			in.link = sc.i32.take(min(n, relation.SizeSample) * kids)[:0]
			continue
		}
		tb, err := edgeTable(x.Gov, rels[i], shape.childKey[i])
		if err != nil {
			return t, err
		}
		if in.table = tb; kids == 0 {
			in.flag = sc.words.take(wordsFor(tb.keys()))
		} else {
			in.rank, in.count = sc.i32.take(wordsFor(n)), sc.ints.take(tb.keys())
		}
	}
	return t, nil
}

// wordsFor returns the number of 64-bit words n bits take.
func wordsFor(n int) int { return (n + 63) / 64 }

// mark is the full reducer: a leaf-to-root sweep (parent ⋉ child, in
// ear-removal order), then a root-to-leaf one (child ⋉ parent, reversed),
// each taking a node's children together. Afterwards the inputs are
// globally consistent: every tuple left alive participates in at least
// one output tuple.
func (t *treeJoin) mark() error {
	order, kids := t.tree.Order, t.shape.kids
	for _, p := range order {
		if len(kids[p]) > 0 {
			if err := t.up(p); err != nil {
				return err
			}
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		if p := order[k]; len(kids[p]) > 0 {
			if err := t.down(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// up is the semijoin passes p ⋉ c over each child c of p in one sweep.
// An inner child's groups that hold a live row are flagged first; a
// leaf's all do. Each live row of p is then probed into its children's
// tables in the shape's order, and deleted at the first child where its
// group is missing or unflagged — the probes the passes one by one would
// make. Each pass is accounted for with the survivors after it. The
// root's rows are final after this sweep, so the root keeps each
// survivor's groups (link), reserved once for the survivors its first
// relation.SizeSample rows forecast.
func (t *treeJoin) up(p int) error {
	kids, in, parent := t.shape.kids[p], &t.in[p], t.rels[p]
	for _, c := range kids {
		fault.Hit(fault.Semijoin)
		child := &t.in[c]
		if child.count == nil {
			continue
		}
		for grp, first := range child.table.head {
			for r := int(first); r >= 0; r = child.table.after(r) {
				if !child.dead.has(r) {
					child.count[grp] = 1
					break
				}
				if err := t.x.Gov.Tick(); err != nil {
					return err
				}
			}
		}
	}
	root, killed, rows := p == t.tree.Root(), t.killed[:len(kids)], in.rows
	clear(killed)
	for r := 0; r < parent.Len(); r++ {
		if root && r == relation.SizeSample {
			n, width := parent.Len(), len(kids)
			in.link = append(t.sc.i32.take(relation.Forecast(len(in.link)/width, r, n, n) * width)[:0], in.link...)
		}
		if in.dead.has(r) {
			continue
		}
		row, from := parent.Tuple(r), len(in.link)
		for k, c := range kids {
			if err := t.x.Gov.Tick(); err != nil {
				return err
			}
			child, key := &t.in[c], t.shape.key[c]
			grp := child.table.group(row.HashOf(key), row, key)
			if grp < 0 || child.count != nil && child.count[grp] == 0 {
				in.dead.set(r)
				in.rows--
				killed[k]++
				in.link = in.link[:from]
				break
			}
			if root {
				if len(in.link) == cap(in.link) { // past the forecast: grown in the scratch too
					in.link = append(t.sc.i32.take(min(2*cap(in.link)+len(kids), parent.Len()*len(kids)))[:0], in.link...)
				}
				in.link = append(in.link, int32(grp))
			}
		}
	}
	for _, n := range killed {
		rows -= int(n)
		if err := t.reduced(p, rows); err != nil {
			return err
		}
	}
	return nil
}

// down is the semijoin passes c ⋉ p over each child c of p, once p's
// rows are final: the root's after its up sweep, which kept their groups,
// an inner node's after its own down pass, when its live rows are probed
// (linked) — at most output × children groups, for every live row reaches
// the output. Each child flags the groups a live row of p joins and
// deletes the live rows of the others.
func (t *treeJoin) down(p int) error {
	if p != t.tree.Root() {
		if err := t.linked(p); err != nil {
			return err
		}
	}
	kids, link := t.shape.kids[p], t.in[p].link
	for k, c := range kids {
		fault.Hit(fault.Semijoin)
		child := &t.in[c]
		clear(child.count)
		for j := k; j < len(link); j += len(kids) {
			if err := t.x.Gov.Tick(); err != nil {
				return err
			}
			child.join(int(link[j]))
		}
		for grp, first := range child.table.head {
			if child.joined(grp) {
				continue
			}
			for r := int(first); r >= 0; r = child.table.after(r) {
				if err := t.x.Gov.Tick(); err != nil {
					return err
				}
				if !child.dead.has(r) {
					child.dead.set(r)
					child.rows--
				}
			}
		}
		if err := t.reduced(c, child.rows); err != nil {
			return err
		}
	}
	return nil
}

// linked keeps the groups inner node p's live rows join in its children's
// tables, in row order and at exactly the size they need, and ranks its
// words over its final dead set.
func (t *treeJoin) linked(p int) error {
	kids, in, rel := t.shape.kids[p], &t.in[p], t.rels[p]
	live := 0
	for w, dead := range in.dead {
		in.rank[w] = int32(live)
		live += 64 - bits.OnesCount64(dead)
	}
	in.link = t.sc.i32.take(in.rows * len(kids))[:0]
	for r := 0; r < rel.Len(); r++ {
		if in.dead.has(r) {
			continue
		}
		row := rel.Tuple(r)
		for _, c := range kids {
			if err := t.x.Gov.Tick(); err != nil {
				return err
			}
			key := t.shape.key[c]
			in.link = append(in.link, int32(t.in[c].table.group(row.HashOf(key), row, key)))
		}
	}
	return nil
}

// join flags group grp of a child's table as joined by a live parent row.
func (in *input) join(grp int) {
	if in.count != nil {
		in.count[grp] = 1
	} else {
		in.flag.set(grp)
	}
}

// joined reports whether join flagged group grp.
func (in *input) joined(grp int) bool {
	if in.count != nil {
		return in.count[grp] != 0
	}
	return in.flag.has(grp)
}

// at returns live row r's place among an inner node's live rows: its
// links start at link[at(r) × children].
func (in *input) at(r int) int {
	w := r >> 6
	return int(in.rank[w]) + bits.OnesCount64(^in.dead[w]&(1<<(r&63)-1))
}

// reduced accounts for one finished semijoin pass over input i, which
// left rows of it, exactly as for the relation it would have produced:
// its cardinality goes to the metrics, the span's peak and the row
// budget, and the memory budget is charged for that many rows of i's
// arity — since the survivors are marks in a bitset and not a relation,
// a conservative estimate.
func (t *treeJoin) reduced(i, rows int) error {
	t.semijoins++
	t.x.Metrics.Semijoin(rows)
	return t.x.Sized(rows, t.rels[i].Scheme().Len())
}

// survivors returns input i restricted to its live rows: the input itself
// when every row is.
func (t *treeJoin) survivors(i int) (*relation.Relation, error) {
	rel, in := t.rels[i], &t.in[i]
	if in.rows == rel.Len() {
		return rel, nil
	}
	b := relation.NewBuilder(rel.Scheme(), in.rows)
	for r := 0; r < rel.Len(); r++ {
		if in.dead.has(r) {
			continue
		}
		if err := t.x.Gov.Tick(); err != nil {
			return nil, err
		}
		b.Row(rel.Tuple(r))
	}
	return b.Relation(), nil
}

// count returns the output's cardinality, saturating at math.MaxInt,
// without building a row of it. Bottom-up, an inner node's group count
// becomes the sum over its live rows of the product of the counts of the
// groups the row joins in its children (weight), summed into the group as
// its chain is walked; a leaf's is its group's size. The root's live rows
// sum to the total. On a marked tree no factor is zero: there are no dead
// ends to count.
func (t *treeJoin) count() (int, error) {
	root := t.tree.Root()
	for _, i := range t.tree.Order {
		in := &t.in[i]
		if i == root || in.count == nil {
			continue
		}
		for grp, first := range in.table.head {
			if in.count[grp] == 0 {
				continue
			}
			n := 0
			for r := int(first); r >= 0; r = in.table.after(r) {
				if err := t.x.Gov.Tick(); err != nil {
					return 0, err
				}
				if in.dead.has(r) {
					continue
				}
				if n += t.weight(i, in.at(r)); n < 0 {
					n = math.MaxInt
				}
			}
			in.count[grp] = n
		}
	}
	total := 0
	for j := range t.in[root].rows {
		if err := t.x.Gov.Tick(); err != nil {
			return 0, err
		}
		if total += t.weight(root, j); total < 0 {
			total = math.MaxInt
		}
	}
	return total, nil
}

// weight returns the product of the counts of the groups the j-th live
// row of input i joins in its children, saturating at math.MaxInt.
func (t *treeJoin) weight(i, j int) int {
	kids := t.shape.kids[i]
	w, link := 1, t.in[i].link[j*len(kids):]
	for k, c := range kids {
		child, n := &t.in[c], 0
		if child.count != nil {
			n = child.count[link[k]]
		} else {
			n = int(child.table.size[link[k]])
		}
		hi, lo := bits.Mul64(uint64(w), uint64(n))
		if w = int(lo); hi != 0 || w < 0 {
			return math.MaxInt
		}
	}
	return w
}

// search writes the output, total rows over the shape's scheme, into out
// — Begin with that count, then the rows in lexicographic order — with
// the generic join's search over the inputs' live rows (tries) in the
// shape's column order. A sink that wants no rows (a count) gets none, and
// no trie is built. A marked tree has no dead ends, and in this order the
// search meets none: an input's block is bound only after its parent's
// row is fixed, and every live row extends to an output row. Its work is
// linear in the live rows plus the output, times the arity and a log
// (FuzzAcyclicJoin pins the candidates examined).
func (t *treeJoin) search(total int, out relation.Sink) error {
	// With nothing alive the search must not run either, since over
	// nullary schemes it binds the empty row whatever its tries hold.
	if !out.Begin(t.shape.out, total) || total == 0 {
		return nil
	}
	tries, err := t.tries()
	if err != nil {
		return err
	}
	j := newGenericJoin(t.sc, &t.shape.genericShape, tries, out)
	j.gov = t.x.Gov
	j.search(0)
	t.candidates = j.candidates
	if errors.Is(j.err, errStopped) {
		return nil // the sink's choice
	}
	return j.err
}

// tries returns the search's trie over each input: its trie fact
// (trieOf), shared with every request, when it lost no row; else a trie
// of its live rows alone, views cut from one array and sorted for this
// request, one tick per row. Dead rows never reach the search.
func (t *treeJoin) tries() ([]sortedTrie, error) {
	tries, live := t.sc.tries.take(len(t.rels)), 0
	for i, r := range t.rels {
		if t.in[i].rows < r.Len() {
			live += t.in[i].rows
		}
	}
	views := t.sc.tuples.take(live)[:0]
	for i, r := range t.rels {
		if t.in[i].rows == r.Len() {
			fact, err := trieOf(r, t.shape.cols[i], t.x.Gov)
			if err != nil {
				return nil, err
			}
			tries[i] = *fact
			continue
		}
		from := len(views)
		for k := 0; k < r.Len(); k++ {
			if t.in[i].dead.has(k) {
				continue
			}
			if err := t.x.Gov.Tick(); err != nil {
				return nil, err
			}
			views = append(views, r.Tuple(k))
		}
		tries[i] = sortedTrie{cols: t.shape.cols[i], rows: views[from:len(views):len(views)]}
		tries[i].sort()
	}
	return tries, nil
}

// FullReduce runs Yannakakis' full reducer over an acyclic join and
// returns the reduced relations — an input no pass took a tuple from is
// returned as it is — together with the number of semijoins performed.
// It reports an error when the relations' scheme hypergraph is cyclic.
func FullReduce(rels []*relation.Relation) ([]*relation.Relation, int, error) {
	p := NewPlan(rels...)
	tree, ok := p.JoinTree()
	if !ok {
		return nil, 0, fmt.Errorf("join: full reduction requires an acyclic join (schemes %v)", SchemesOf(rels))
	}
	t, err := newTreeJoin(new(scratch), Exec{}, rels, tree, p.treeShape())
	if err != nil {
		return nil, 0, err
	}
	if err := t.mark(); err != nil {
		return nil, t.semijoins, err
	}
	out := make([]*relation.Relation, len(rels))
	for i := range rels {
		if out[i], err = t.survivors(i); err != nil {
			return nil, t.semijoins, err
		}
	}
	return out, t.semijoins, nil
}

// Semijoin computes r ⋉ s: the tuples of r that join with at least one
// tuple of s on their shared attributes — one upward pass over the
// two-node tree with r at the root. When the schemes are disjoint, the
// result is r itself if s is nonempty and empty otherwise.
func Semijoin(r, s *relation.Relation) (*relation.Relation, error) {
	rels, tree := []*relation.Relation{r, s}, &JoinTree{Parent: []int{-1, 0}, Order: []int{1, 0}}
	t, err := newTreeJoin(new(scratch), Exec{}, rels, tree, newTreeShape(SchemesOf(rels), tree))
	if err != nil {
		return nil, err
	}
	if err := t.up(0); err != nil {
		return nil, err
	}
	return t.survivors(0)
}
