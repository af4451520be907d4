package join

import (
	"fmt"
	"math"
	"math/bits"

	"relquery/internal/fault"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// Yannakakis evaluates α-acyclic n-ary natural joins with Yannakakis'
// algorithm: GYO ear removal yields a join tree, a leaf-to-root plus
// root-to-leaf semijoin sweep (the "full reducer") deletes every dangling
// tuple, and the reduced relations are then joined along the tree. After
// full reduction every tuple of every relation extends to at least one
// output tuple, so the tree can be walked without a dead end: the output
// is counted, and then written, with no intermediate relation at all —
// evaluation is linear in input plus output, the Durand–Grandjean
// tractable frontier of exactly the problem the paper proves hard for
// general (cyclic) queries.
//
// The contrast with the other strategies: the greedy binary planner can
// be forced to materialize dangling combinations exponentially larger
// than the output, and the worst-case-optimal Generic join, while never
// exceeding the AGM bound, still sorts every input into a trie up front.
// On acyclic inputs Yannakakis does neither — semijoins only shrink, and
// the tree joins never outgrow the output.
//
// On a cyclic hypergraph the algorithm does not apply; JoinAll then falls
// back to the greedy binary plan over pairwise-reduced joins (Join: the
// same executor on a two-node tree) — sound for any join, just without
// the output-boundedness guarantee — so the type is safe to force on
// arbitrary queries via -join=yannakakis.
//
// Metrics: each semijoin pass's surviving cardinality, one join whose
// built side is the reduced non-root rows and whose probed side the
// reduced root rows, and the yannakakis join counter; JoinAll also records
// the GYO verdict and the full reducer's effort on the span. The governor
// is ticked per row in every pass, so the sweeps, the count and the
// enumeration abort at tuple granularity, and every semijoin pass and the
// output go through Exec.Sized — which is what makes the
// output-boundedness visible in, and enforced on, the trace.
type Yannakakis struct{}

// Name implements Algorithm.
func (Yannakakis) Name() string { return "yannakakis" }

// Join implements Algorithm; two relations are always α-acyclic, so a
// binary Yannakakis join is joinTree on a two-node tree: one semijoin
// each way, then the count and the enumeration of the reduced pair.
func (y Yannakakis) Join(x Exec, l, r *relation.Relation) (*relation.Relation, error) {
	p := NewPlan(l, r)
	tree, _ := p.JoinTree()
	out, _, _, err := joinTree(x, p.Inputs, tree)
	return out, err
}

// JoinAll joins all of the plan's inputs along its GYO join tree,
// recording the verdict and the full reducer's effort on the span. Like
// Multi, joining zero relations is an error and a single relation passes
// through unchanged.
func (y Yannakakis) JoinAll(x Exec, p *Plan) (*relation.Relation, error) {
	inputs := p.Inputs
	switch len(inputs) {
	case 0:
		return nil, fmt.Errorf("join: JoinAll requires at least one input")
	case 1:
		return inputs[0], nil
	}
	tree, ok := p.JoinTree()
	if !ok {
		x.Span.SetStructure(obs.StructureCyclic)
		return multiGreedy(x, inputs, y)
	}
	x.Span.SetStructure(obs.StructureAcyclic)
	out, semijoins, reducedRows, err := joinTree(x, inputs, tree)
	if err != nil {
		return nil, err
	}
	x.Span.SetYannakakis(semijoins, reducedRows)
	return out, nil
}

// joinTree joins the inputs along the join tree in three passes over one
// hash table per tree edge (treeJoin): mark deletes every dangling tuple,
// count learns the output's cardinality — and runs the row check and the
// byte charge on it — before an output row exists, enumerate writes the
// output once, at that size. It also returns the number of semijoin
// passes and the total cardinality surviving them (the "semijoin-pass
// cardinality" EXPLAIN ANALYZE reports; the inputs' total minus this is
// the dangling tuples removed).
func joinTree(x Exec, inputs []*relation.Relation, tree *JoinTree) (out *relation.Relation, semijoins, reducedRows int, err error) {
	fault.Hit(fault.JoinStart)
	if err := x.Gov.Check(); err != nil {
		return nil, 0, 0, err
	}
	root := tree.Root()
	t := newTreeJoin(x, inputs, tree)
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
	scheme := t.scheme()
	x.Metrics.JoinWork(reducedRows-t.rows[root], t.rows[root], total)
	x.Metrics.ObserveJoin(total)
	if total == math.MaxInt {
		// More rows than an int counts: over any budget there is, and not
		// a size to ask the allocator for when there is none.
		if err := x.Gov.CheckRows(total); err != nil {
			return nil, 0, 0, err
		}
		return nil, 0, 0, fmt.Errorf("join: the output's cardinality overflows int")
	}
	if err := x.Sized(total, scheme.Len()); err != nil {
		return nil, 0, 0, err
	}
	out, err = t.enumerate(scheme, total)
	if err != nil {
		return nil, 0, 0, err
	}
	x.Metrics.Yannakakis()
	return out, t.semijoins, reducedRows, nil
}

// treeJoin is one evaluation of an acyclic join along its join tree, and
// the owner of everything the passes share. Nothing a pass produces is a
// relation: a deleted tuple is a bit set in its input's dead set, and
// each tree edge has one hash table — the child's live rows grouped on
// the attributes it shares with its parent, built once, when the child's
// own children have reduced it. The table stays valid to the end because
// a child's rows die either before it is built (the up-sweep, from below)
// or by whole groups afterwards (the down-sweep, from above): a group
// whose count is non-zero holds live rows only.
type treeJoin struct {
	x         Exec
	rels      []*relation.Relation
	tree      *JoinTree
	dead      []bitset // per input: the rows a pass has deleted
	rows      []int    // per input: how many it has not
	edges     []edge   // per input: its edge to its parent; unused at the root
	semijoins int
}

// edge is one tree edge, seen from the child.
type edge struct {
	table *hashTable // the child's live rows, grouped on the shared attributes
	key   keyCols    // the shared attributes' positions in the parent
	group []int32    // live parent row -> its group of table
	// count is per group: after the down-sweep, 1 when a live parent row
	// points at the group and 0 when none does (the group is dead); after
	// the count pass, the number of output rows the child's subtree
	// contributes per parent row pointing at it.
	count []int
}

func newTreeJoin(x Exec, rels []*relation.Relation, tree *JoinTree) *treeJoin {
	t := &treeJoin{
		x: x, rels: rels, tree: tree,
		dead:  make([]bitset, len(rels)),
		rows:  make([]int, len(rels)),
		edges: make([]edge, len(rels)),
	}
	for i, r := range rels {
		t.dead[i], t.rows[i] = make(bitset, (r.Len()+63)/64), r.Len()
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

// up is the semijoin pass parent ⋉ child. It builds the edge's table over
// the child's live rows, looks each live parent row's group up once and
// remembers it, and deletes the parent rows that have none.
func (t *treeJoin) up(i, p int) error {
	fault.Hit(fault.Semijoin)
	e, parent, child := &t.edges[i], t.rels[p], t.rels[i]
	var keyChild keyCols
	for c := 0; c < parent.Scheme().Len(); c++ {
		if at, ok := child.Scheme().Pos(parent.Scheme().Attr(c)); ok {
			e.key, keyChild = append(e.key, c), append(keyChild, at)
		}
	}
	var err error
	if e.table, err = buildTable(t.x.Gov, child, keyChild, t.dead[i]); err != nil {
		return err
	}
	e.group = make([]int32, parent.Len())
	for r := 0; r < parent.Len(); r++ {
		if t.dead[p].has(r) {
			continue
		}
		if err := t.x.Gov.Tick(); err != nil {
			return err
		}
		row := parent.Tuple(r)
		grp := e.table.group(row.HashOf(e.key), row, e.key)
		if grp < 0 {
			t.dead[p].set(r)
			t.rows[p]--
		}
		e.group[r] = int32(grp)
	}
	return t.reduced(p)
}

// down is the semijoin pass child ⋉ parent, over the table up built: it
// flags the groups a live parent row points at and deletes the others,
// whole chains at a time.
func (t *treeJoin) down(i, p int) error {
	fault.Hit(fault.Semijoin)
	e := &t.edges[i]
	e.count = make([]int, e.table.keys())
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
			t.dead[i].set(r)
			t.rows[i]--
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
		b.Concat(rel.Tuple(r), nil, nil)
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
	kids := t.kids()
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

// kids lists each input's children in the join tree.
func (t *treeJoin) kids() [][]int {
	kids := make([][]int, len(t.rels))
	for i, p := range t.tree.Parent {
		if p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	return kids
}

// scheme returns the output's scheme: each child's scheme united into its
// parent's along the ear-removal order.
func (t *treeJoin) scheme() relation.Scheme {
	acc := SchemesOf(t.rels)
	for _, i := range t.tree.Order {
		if p := t.tree.Parent[i]; p >= 0 {
			acc[p] = acc[p].Union(acc[i])
		}
	}
	return acc[t.tree.Root()]
}

// enumerate writes the output, total rows over scheme: an odometer over
// the tree, root first. Its digit for an input is the current row of the
// group the input's parent's current row points at; advancing a digit
// resets the later ones, whose groups may have changed with it. Every
// setting of the digits is an output row — a marked tree has no dead
// ends — so the rows come out root-row-major, each written once, straight
// into a relation of exactly the counted size.
func (t *treeJoin) enumerate(scheme relation.Scheme, total int) (*relation.Relation, error) {
	order, parent := t.tree.Order, t.tree.Parent
	last := len(order) - 1
	root := order[last]
	// The digits, most significant first, are order reversed: parents
	// come before their children.
	from := make([]relation.Ref, scheme.Len())
	for c := range from {
		for k := last; ; k-- {
			if at, ok := t.rels[order[k]].Scheme().Pos(scheme.Attr(c)); ok {
				from[c] = relation.Ref{Src: order[k], Col: at}
				break
			}
		}
	}
	at := make([]int, len(order))             // input -> its current row
	cur := make([]relation.Tuple, len(order)) // the same, as tuples
	// rewind sets the digits order[k], order[k-1], … to the first rows of
	// their groups.
	rewind := func(k int) {
		for ; k >= 0; k-- {
			i := order[k]
			e := &t.edges[i]
			at[i] = int(e.table.head[e.group[at[parent[i]]]])
			cur[i] = t.rels[i].Tuple(at[i])
		}
	}
	b := relation.NewBuilder(scheme, total)
	for r := 0; r < t.rels[root].Len(); r++ {
		if t.dead[root].has(r) {
			continue
		}
		at[root], cur[root] = r, t.rels[root].Tuple(r)
		rewind(last - 1)
		for done := false; !done; {
			if b.Len()%checkBatch == 0 {
				fault.Hit(fault.JoinBatch)
			}
			if err := t.x.Gov.Tick(); err != nil {
				return nil, err
			}
			b.Collect(cur, from)
			// Advance the least significant digit that has a next row;
			// when none has, this root row is done.
			done = true
			for k := 0; k < last && done; k++ {
				i := order[k]
				if next := t.edges[i].table.after(at[i]); next >= 0 {
					at[i], cur[i] = next, t.rels[i].Tuple(next)
					rewind(k - 1)
					done = false
				}
			}
		}
	}
	return b.Relation(), nil
}

// FullReduce runs Yannakakis' full reducer over an acyclic join and
// returns the reduced relations — an input no pass took a tuple from is
// returned as it is — together with the number of semijoins performed.
// It reports an error when the relations' scheme hypergraph is cyclic.
func FullReduce(rels []*relation.Relation) ([]*relation.Relation, int, error) {
	tree, ok := NewPlan(rels...).JoinTree()
	if !ok {
		return nil, 0, fmt.Errorf("join: full reduction requires an acyclic join (schemes %v)", SchemesOf(rels))
	}
	t := newTreeJoin(Exec{}, rels, tree)
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
	t := newTreeJoin(Exec{}, []*relation.Relation{r, s}, &JoinTree{Parent: []int{-1, 0}, Order: []int{1, 0}})
	if err := t.up(1, 0); err != nil {
		return nil, err
	}
	return t.survivors(0)
}

var (
	_ Algorithm = Yannakakis{}
	_ nary      = Yannakakis{}
)
