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
	root, shape := tree.Root(), p.treeShape()
	t := newTreeJoin(x, p.Inputs, tree, shape)
	if err := t.mark(); err != nil {
		return nil, 0, 0, err
	}
	for _, n := range t.rows {
		reducedRows += n
	}
	total, err := t.count()
	if err != nil {
		return nil, 0, 0, err
	}
	x.Metrics.JoinWork(reducedRows-t.rows[root], t.rows[root], total)
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
// What the request keeps is which rows are alive, and per edge each live
// parent row's group and a number per group. Each pass walks a group's
// chain at most once, skipping the rows that died before it, so the dead
// rows a shared table holds cost each pass at most one step apiece: no
// walk repeats per parent row — the output is written by a search over
// the live rows alone (search), not by walking the groups.
type treeJoin struct {
	x          Exec
	rels       []*relation.Relation
	tree       *JoinTree
	shape      *treeShape
	dead       []bitset // per input: the rows a pass has deleted
	rows       []int    // per input: how many it has not
	edges      []edge   // per input: its edge to its parent; unused at the root
	semijoins  int
	candidates int // values the search examined
}

// edge is one tree edge, seen from the child.
type edge struct {
	table *hashTable // the child's rows grouped on the shared attributes, shared with other requests
	group []int32    // live parent row -> its group of table
	// count is per group: after the up pass, 1 when the group holds a
	// live row; after the down-sweep, 1 when a live parent row points at
	// the group and 0 when none does (the group is dead); after the count
	// pass, the number of output rows the child's subtree contributes per
	// parent row pointing at it.
	count []int
}

func newTreeJoin(x Exec, rels []*relation.Relation, tree *JoinTree, shape *treeShape) treeJoin {
	t := treeJoin{
		x: x, rels: rels, tree: tree, shape: shape,
		dead:  make([]bitset, len(rels)),
		rows:  make([]int, len(rels)),
		edges: make([]edge, len(rels)),
	}
	// The dead sets are carved from one array, and so are the edges'
	// group arrays, one slot per row of the parent.
	words, slots := 0, 0
	for i, r := range rels {
		words += (r.Len() + 63) / 64
		if p := tree.Parent[i]; p >= 0 {
			slots += rels[p].Len()
		}
	}
	dead, groups := make(bitset, words), make([]int32, slots)
	for i, r := range rels {
		n := (r.Len() + 63) / 64
		t.dead[i], dead = dead[:n:n], dead[n:]
		t.rows[i] = r.Len()
		if p := tree.Parent[i]; p >= 0 {
			n = rels[p].Len()
			t.edges[i].group, groups = groups[:n:n], groups[n:]
		}
	}
	return t
}

// mark is the full reducer: a leaf-to-root sweep (parent ⋉ child, in
// ear-removal order), then a root-to-leaf one (child ⋉ parent, reversed).
// Afterwards the inputs are globally consistent: every tuple left alive
// participates in at least one output tuple.
func (t *treeJoin) mark() error {
	order, parent := t.tree.Order, t.tree.Parent
	for _, i := range order {
		if p := parent[i]; p >= 0 {
			if err := t.up(i, p); err != nil {
				return err
			}
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		if p := parent[i]; p >= 0 {
			if err := t.down(i, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// up is the semijoin pass parent ⋉ child. It takes the child's table on
// the edge's key, flags the groups that hold a live row, looks each live
// parent row's group up once and remembers it, and deletes the parent
// rows whose group is not flagged.
func (t *treeJoin) up(i, p int) error {
	fault.Hit(fault.Semijoin)
	e, parent, key := &t.edges[i], t.rels[p], t.shape.key[i]
	var err error
	if e.table, err = edgeTable(t.x.Gov, t.rels[i], t.shape.childKey[i]); err != nil {
		return err
	}
	e.count = make([]int, e.table.keys())
	for grp, first := range e.table.head {
		for r := int(first); r >= 0; r = e.table.after(r) {
			if !t.dead[i].has(r) {
				e.count[grp] = 1
				break
			}
			if err := t.x.Gov.Tick(); err != nil {
				return err
			}
		}
	}
	for r := 0; r < parent.Len(); r++ {
		if t.dead[p].has(r) {
			continue
		}
		if err := t.x.Gov.Tick(); err != nil {
			return err
		}
		row := parent.Tuple(r)
		grp := e.table.group(row.HashOf(key), row, key)
		if grp < 0 || e.count[grp] == 0 {
			t.dead[p].set(r)
			t.rows[p]--
		}
		e.group[r] = int32(grp)
	}
	return t.reduced(p)
}

// down is the semijoin pass child ⋉ parent: it flags the groups a live
// parent row points at and deletes the live rows of the others.
func (t *treeJoin) down(i, p int) error {
	fault.Hit(fault.Semijoin)
	e := &t.edges[i]
	clear(e.count)
	for r := 0; r < t.rels[p].Len(); r++ {
		if t.dead[p].has(r) {
			continue
		}
		if err := t.x.Gov.Tick(); err != nil {
			return err
		}
		e.count[e.group[r]] = 1
	}
	for grp, first := range e.table.head {
		if e.count[grp] != 0 {
			continue
		}
		for r := int(first); r >= 0; r = e.table.after(r) {
			if err := t.x.Gov.Tick(); err != nil {
				return err
			}
			if !t.dead[i].has(r) {
				t.dead[i].set(r)
				t.rows[i]--
			}
		}
	}
	return t.reduced(i)
}

// reduced accounts for one finished semijoin pass over input i exactly as
// for the relation it would have produced: its cardinality goes to the
// metrics, the span's peak and the row budget, and the memory budget is
// charged for that many rows of i's arity — since the survivors are marks
// in a bitset and not a relation, a conservative estimate.
func (t *treeJoin) reduced(i int) error {
	t.semijoins++
	t.x.Metrics.Semijoin(t.rows[i])
	return t.x.Sized(t.rows[i], t.rels[i].Scheme().Len())
}

// survivors returns input i restricted to its live rows: the input itself
// when every row is.
func (t *treeJoin) survivors(i int) (*relation.Relation, error) {
	rel := t.rels[i]
	if t.rows[i] == rel.Len() {
		return rel, nil
	}
	b := relation.NewBuilder(rel.Scheme(), t.rows[i])
	for r := 0; r < rel.Len(); r++ {
		if t.dead[i].has(r) {
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
// without building a row of it. Bottom-up, a group's count becomes the
// sum over its rows of the product of the counts of the groups the row
// points at in its own children — summed into the group as its chain is
// walked, so nothing is kept per row. On a marked tree no factor is zero:
// there are no dead ends to count.
func (t *treeJoin) count() (int, error) {
	kids := t.shape.kids
	weight := func(i, r int) int {
		w := 1
		for _, c := range kids[i] {
			e := &t.edges[c]
			hi, lo := bits.Mul64(uint64(w), uint64(e.count[e.group[r]]))
			if w = int(lo); hi != 0 || w < 0 {
				return math.MaxInt
			}
		}
		return w
	}
	root := t.tree.Root()
	for _, i := range t.tree.Order {
		if i == root {
			continue
		}
		e := &t.edges[i]
		for grp, first := range e.table.head {
			if e.count[grp] == 0 {
				continue
			}
			n := 0
			for r := int(first); r >= 0; r = e.table.after(r) {
				if err := t.x.Gov.Tick(); err != nil {
					return 0, err
				}
				if t.dead[i].has(r) {
					continue
				}
				if n += weight(i, r); n < 0 {
					n = math.MaxInt
				}
			}
			e.count[grp] = n
		}
	}
	total := 0
	for r := 0; r < t.rels[root].Len(); r++ {
		if t.dead[root].has(r) {
			continue
		}
		if err := t.x.Gov.Tick(); err != nil {
			return 0, err
		}
		if total += weight(root, r); total < 0 {
			total = math.MaxInt
		}
	}
	return total, nil
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
	j := newGenericJoin(&t.shape.genericShape, tries, out)
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
	tries, live := make([]sortedTrie, len(t.rels)), 0
	for i, r := range t.rels {
		if t.rows[i] < r.Len() {
			live += t.rows[i]
		}
	}
	views := make([]relation.Tuple, 0, live)
	for i, r := range t.rels {
		if t.rows[i] == r.Len() {
			fact, err := trieOf(r, t.shape.cols[i], t.x.Gov)
			if err != nil {
				return nil, err
			}
			tries[i] = *fact
			continue
		}
		from := len(views)
		for k := 0; k < r.Len(); k++ {
			if t.dead[i].has(k) {
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
	t := newTreeJoin(Exec{}, rels, tree, p.treeShape())
	if err := t.mark(); err != nil {
		return nil, t.semijoins, err
	}
	out := make([]*relation.Relation, len(rels))
	for i := range rels {
		var err error
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
	t := newTreeJoin(Exec{}, rels, tree, newTreeShape(SchemesOf(rels), tree))
	if err := t.up(1, 0); err != nil {
		return nil, err
	}
	return t.survivors(0)
}
