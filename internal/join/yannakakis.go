package join

import (
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
// is ticked per row in every pass, so the sweeps, the count and the
// enumeration abort at tuple granularity, and every semijoin pass and the
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

// joinTree joins the inputs of p, an acyclic node, along its join tree in
// three passes over one hash table per tree edge (treeJoin): mark deletes
// every dangling tuple, count learns the output's cardinality — and runs
// the row check and the byte charge on it — before an output row exists,
// enumerate writes the output once, at that size. It also returns the
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
	out, err = t.enumerate(total)
	if err != nil {
		return nil, 0, 0, err
	}
	x.Metrics.Yannakakis()
	return out, t.semijoins, reducedRows, nil
}

// treeShape is what the tree join derives from the node's schemes and
// join tree alone, so a node's Facts holds it (Plan.treeShape) and a warm
// plan derives none of it again: the output scheme — each child's scheme
// united into its parent's along the ear-removal order — the input and
// column every output column is read from, each input's children, the
// inputs in preorder, and each tree edge's key. Read-only once built.
//
// The output's columns come in blocks, one per input in preorder: the
// root's scheme, then each child's subtree in turn, children in
// ear-removal order, a child contributing the attributes it does not
// share with its parent. By the running-intersection property an
// attribute a child shares with anything outside its subtree is in its
// parent, so the blocks partition the columns, and the rows of one group
// of a child — equal on its key — differ in its block.
type treeShape struct {
	out  relation.Scheme
	from []relation.Ref // output column -> the input (Src) and column it is read from
	kids [][]int        // input -> its children in the tree, in ear-removal order
	pre  []int          // the inputs in preorder, the root first: the output's blocks
	// key[i] and childKey[i] are the positions of the attributes input i
	// shares with its parent, in the parent's scheme and in i's; unused at
	// the root.
	key, childKey []keyCols
}

func newTreeShape(schemes []relation.Scheme, tree *JoinTree) *treeShape {
	n := len(schemes)
	s := &treeShape{kids: make([][]int, n), key: make([]keyCols, n), childKey: make([]keyCols, n)}
	// The children lists and the preorder are carved from one array: n-1
	// children, then n inputs.
	flat := make([]int, 0, 2*n)
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
	root := tree.Root()
	if root < 0 {
		return s
	}
	acc := slices.Clone(schemes)
	for _, i := range tree.Order {
		if p := tree.Parent[i]; p >= 0 {
			acc[p] = acc[p].Union(acc[i])
		}
	}
	s.out = acc[root]
	s.pre = appendPreorder(flat[len(flat):len(flat)], s.kids, root)
	// An output column is read from the first input in preorder that has
	// it: the input whose block holds it.
	s.from = make([]relation.Ref, s.out.Len())
	for c := range s.from {
		for _, i := range s.pre {
			if at, ok := schemes[i].Pos(s.out.Attr(c)); ok {
				s.from[c] = relation.Ref{Src: i, Col: at}
				break
			}
		}
	}
	return s
}

// appendPreorder appends the subtree of input i to pre in preorder:
// i, then each child's subtree in the order kids lists them.
func appendPreorder(pre []int, kids [][]int, i int) []int {
	pre = append(pre, i)
	for _, c := range kids[i] {
		pre = appendPreorder(pre, kids, c)
	}
	return pre
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
// What the request keeps is which rows of a group are alive. A child's
// rows die either before its edge's up pass (in its own children's
// up-sweeps) or by whole groups afterwards (the down-sweep, from above:
// a group whose count is non-zero holds no row of that kind). Only the
// first kind needs filtering, and the walks must not pay for it: the
// enumeration walks a group once per parent row pointing at it, so a
// group of one live and n dead rows under n parents would cost n² links.
// So up gives every edge its live chains: the table's own when the child
// has lost no row yet, else chains of the live rows alone, derived once
// (4 B per child row), and every later pass walks those.
type treeJoin struct {
	x         Exec
	rels      []*relation.Relation
	tree      *JoinTree
	shape     *treeShape
	dead      []bitset // per input: the rows a pass has deleted
	rows      []int    // per input: how many it has not
	edges     []edge   // per input: its edge to its parent; unused at the root
	semijoins int
}

// edge is one tree edge, seen from the child.
type edge struct {
	table *treeTable // the child's rows grouped on the shared attributes, shared with other requests
	// head and next chain each group's rows that were alive at up: head
	// is per group, its first such row or -1, and next per child row, the
	// following one or -1. They are the table's own head and next when
	// every row was, and must not be written.
	head, next []int32
	// live is nil when every row was alive at up. Otherwise it is per
	// group: the group's live rows in order, derived by the enumeration
	// when it first reaches the group (treeJoin.inOrder).
	live  [][]int32
	group []int32 // live parent row -> its group of table
	// count is per group: after the down-sweep, 1 when a live parent row
	// points at the group and 0 when none does (the group is dead); after
	// the count pass, the number of output rows the child's subtree
	// contributes per parent row pointing at it.
	count []int
}

// after returns the live row following child row r in its group, or -1.
func (e *edge) after(r int) int { return int(e.next[r]) }

func newTreeJoin(x Exec, rels []*relation.Relation, tree *JoinTree, shape *treeShape) *treeJoin {
	t := &treeJoin{
		x: x, rels: rels, tree: tree, shape: shape,
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

// up is the semijoin pass parent ⋉ child. It takes the child's table on
// the edge's key, chains its live rows, looks each live parent row's group
// up once and remembers it, and deletes the parent rows whose group has no
// live row.
func (t *treeJoin) up(i, p int) error {
	fault.Hit(fault.Semijoin)
	e, parent, key := &t.edges[i], t.rels[p], t.shape.key[i]
	var err error
	if e.table, err = edgeTable(t.x.Gov, t.rels[i], t.shape.childKey[i]); err != nil {
		return err
	}
	if err := t.chainLive(i); err != nil {
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
		grp := e.table.group(row.HashOf(key), row, key)
		if grp >= 0 && e.head[grp] < 0 {
			grp = -1
		}
		if grp < 0 {
			t.dead[p].set(r)
			t.rows[p]--
		}
		e.group[r] = int32(grp)
	}
	return t.reduced(p)
}

// chainLive sets edge i's live chains: the table's own when input i has
// lost no row, else its live rows chained per group, one tick per row.
func (t *treeJoin) chainLive(i int) error {
	e := &t.edges[i]
	if t.rows[i] == t.rels[i].Len() {
		e.head, e.next = e.table.head, e.table.next
		return nil
	}
	e.head, e.next = make([]int32, e.table.keys()), make([]int32, t.rels[i].Len())
	e.live = make([][]int32, e.table.keys())
	for grp, first := range e.table.head {
		e.head[grp] = -1
		last := -1
		for r := int(first); r >= 0; r = e.table.after(r) {
			if err := t.x.Gov.Tick(); err != nil {
				return err
			}
			if t.dead[i].has(r) {
				continue
			}
			if last < 0 {
				e.head[grp] = int32(r)
			} else {
				e.next[last] = int32(r)
			}
			e.next[r], last = -1, r
		}
	}
	return nil
}

// down is the semijoin pass child ⋉ parent, over the chains up made: it
// flags the groups a live parent row points at and deletes the others,
// whole chains at a time.
func (t *treeJoin) down(i, p int) error {
	fault.Hit(fault.Semijoin)
	e := &t.edges[i]
	e.count = make([]int, len(e.head))
	for r := 0; r < t.rels[p].Len(); r++ {
		if t.dead[p].has(r) {
			continue
		}
		if err := t.x.Gov.Tick(); err != nil {
			return err
		}
		e.count[e.group[r]] = 1
	}
	for grp, first := range e.head {
		if e.count[grp] != 0 {
			continue
		}
		for r := int(first); r >= 0; r = e.after(r) {
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
		for grp, first := range e.head {
			if e.count[grp] == 0 {
				continue
			}
			n := 0
			for r := int(first); r >= 0; r = e.after(r) {
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

// enumerate writes the output, total rows over the shape's scheme: an
// odometer over the tree whose digits, most significant first, are the
// inputs in preorder — the order of the output's column blocks. A digit
// walks the live rows of the group its parent's current row points at,
// and a parent precedes its children, so advancing a digit resets the
// later ones, whose groups may have changed with it. Every setting of the
// digits is an output row — a marked tree has no dead ends — so the rows
// come out each written once, straight into a relation of exactly the
// counted size.
//
// And they come out sorted. The root's rows are walked in its sorted
// order, and every group's in its child's (inOrder); the rows of a group
// are equal on the key and differ in the child's block, so each digit
// steps through its block's values in ascending order. Two output rows
// first differ in the block of the first digit on which they differ — the
// earlier digits, and with them that digit's group, being equal — so the
// odometer's order is lexicographic order on the output's columns, and
// the result is born sorted.
func (t *treeJoin) enumerate(total int) (*relation.Relation, error) {
	pre, parent := t.shape.pre, t.tree.Parent
	// digit is one input's place: the rows it walks, and which of them
	// is current.
	type digit struct {
		rows []int32
		k    int
	}
	digits := make([]digit, len(pre))
	at := func(i int) int { return int(digits[i].rows[digits[i].k]) }
	cur := make([]relation.Tuple, len(pre)) // input -> its current row
	// rewind sets the digits pre[k], pre[k+1], … to the first rows of
	// their groups.
	rewind := func(k int) error {
		for ; k < len(pre); k++ {
			i := pre[k]
			rows, err := t.inOrder(i, int(t.edges[i].group[at(parent[i])]))
			if err != nil {
				return err
			}
			digits[i] = digit{rows: rows}
			cur[i] = t.rels[i].Tuple(int(rows[0]))
		}
		return nil
	}
	b := relation.NewBuilder(t.shape.out, total)
	root := pre[0]
	// The root's digit is one row of its sorted order. A born-sorted root
	// has no order to point into and is walked in store order, each row
	// through the one slot of born.
	order := t.rels[root].SortedOrder()
	var born []int32
	if order == nil {
		born = make([]int32, 1)
	}
	for k := 0; k < t.rels[root].Len(); k++ {
		var rows []int32
		if born != nil {
			born[0], rows = int32(k), born
		} else {
			rows = order[k : k+1]
		}
		r := int(rows[0])
		if t.dead[root].has(r) {
			continue
		}
		digits[root] = digit{rows: rows}
		cur[root] = t.rels[root].Tuple(r)
		if err := rewind(1); err != nil {
			return nil, err
		}
		for done := false; !done; {
			if b.Len()%checkBatch == 0 {
				fault.Hit(fault.JoinBatch)
			}
			if err := t.x.Gov.Tick(); err != nil {
				return nil, err
			}
			b.Collect(cur, t.shape.from)
			// Advance the least significant digit that has a next row;
			// when none has, this root row is done.
			done = true
			for x := len(pre) - 1; x > 0 && done; x-- {
				i := pre[x]
				if d := &digits[i]; d.k+1 < len(d.rows) {
					d.k++
					cur[i] = t.rels[i].Tuple(at(i))
					if err := rewind(x + 1); err != nil {
						return nil, err
					}
					done = false
				}
			}
		}
	}
	return b.SortedRelation(), nil
}

// inOrder returns the live rows of group grp of input i's edge, in the
// order of input i's rows. A group the enumeration reaches has lost rows
// only before i's up pass — a later death takes a whole group — so with no
// such loss it is the table's group (treeTable.inOrder), and otherwise
// that group less its dead rows, derived on the enumeration's first visit
// to it, one tick per row.
func (t *treeJoin) inOrder(i, grp int) ([]int32, error) {
	e := &t.edges[i]
	rows := e.table.inOrder(grp)
	if e.live == nil {
		return rows, nil
	}
	if e.live[grp] == nil {
		kept := make([]int32, 0, len(rows))
		for _, r := range rows {
			if err := t.x.Gov.Tick(); err != nil {
				return nil, err
			}
			if !t.dead[i].has(int(r)) {
				kept = append(kept, r)
			}
		}
		e.live[grp] = kept
	}
	return e.live[grp], nil
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
