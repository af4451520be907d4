package join

import (
	"fmt"

	"relquery/internal/fault"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// Yannakakis evaluates α-acyclic n-ary natural joins with Yannakakis'
// algorithm: GYO ear removal yields a join tree, a leaf-to-root plus
// root-to-leaf semijoin sweep (the "full reducer") deletes every dangling
// tuple, and the reduced relations are then joined along the tree. After
// full reduction every tuple of every relation extends to at least one
// output tuple, so each intermediate join along the tree is bounded by
// the output projected onto its subtree — evaluation is linear in input
// plus output, the Durand–Grandjean tractable frontier of exactly the
// problem the paper proves hard for general (cyclic) queries.
//
// The contrast with the other strategies: the greedy binary planner can
// be forced to materialize dangling combinations exponentially larger
// than the output, and the worst-case-optimal Generic join, while never
// exceeding the AGM bound, still sorts every input into a trie up front.
// On acyclic inputs Yannakakis does neither — semijoins only shrink, and
// the tree joins never outgrow the output.
//
// On a cyclic hypergraph the algorithm does not apply; JoinAll then falls
// back to the greedy binary plan over pairwise-reduced joins (Join: one
// semijoin each way, then a hash join of the reduced sides) — sound for
// any join, just without the output-boundedness guarantee — so the type
// is safe to force on arbitrary queries via -join=yannakakis.
//
// Metrics: each semijoin pass's output cardinality, the tree joins' tuple
// traffic (via the inner hash join) and the yannakakis join counter;
// JoinAll also records the GYO verdict and the full reducer's effort on
// the span. The governor is ticked inside every semijoin sweep and every
// tree join, so both full-reducer passes and the final joins abort at
// tuple granularity, and every semijoin result and tree join goes through
// Exec.Materialized — which is what makes the output-boundedness visible
// in, and enforced on, the trace.
type Yannakakis struct{}

// Name implements Algorithm.
func (Yannakakis) Name() string { return "yannakakis" }

// Join implements Algorithm; two relations are always α-acyclic, so a
// binary Yannakakis join is a pairwise full reduction (one semijoin each
// way) followed by a hash join of the reduced sides.
func (y Yannakakis) Join(x Exec, l, r *relation.Relation) (*relation.Relation, error) {
	p := NewPlan(l, r)
	tree, _ := p.JoinTree()
	out, _, _, err := y.joinTree(x, p.Inputs, tree)
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
	out, semijoins, reducedRows, err := y.joinTree(x, inputs, tree)
	if err != nil {
		return nil, err
	}
	x.Span.SetYannakakis(semijoins, reducedRows)
	return out, nil
}

// joinTree runs the full reducer over the join tree and then joins
// children into parents along it, leaves first: with the relations fully
// reduced, every intermediate tuple extends to an output tuple, so no
// step outgrows the output. It also returns the number of semijoin passes
// and the total cardinality surviving them (the "semijoin-pass
// cardinality" EXPLAIN ANALYZE reports; the inputs' total minus this is
// the dangling tuples removed).
func (Yannakakis) joinTree(x Exec, inputs []*relation.Relation, tree *JoinTree) (out *relation.Relation, semijoins, reducedRows int, err error) {
	fault.Hit(fault.JoinStart)
	if err := x.Gov.Check(); err != nil {
		return nil, 0, 0, err
	}
	acc, semijoins, err := fullReduce(x, inputs, tree)
	if err != nil {
		return nil, 0, 0, err
	}
	for _, r := range acc {
		reducedRows += r.Len()
	}
	for _, i := range tree.Order {
		p := tree.Parent[i]
		if p < 0 {
			continue
		}
		acc[p], err = Hash{}.Join(x, acc[p], acc[i])
		if err != nil {
			return nil, 0, 0, err
		}
	}
	root := tree.Root()
	if root < 0 {
		return nil, 0, 0, fmt.Errorf("join: internal error: join tree has no root")
	}
	x.Metrics.Yannakakis()
	return acc[root], semijoins, reducedRows, nil
}

// fullReduce runs the two semijoin sweeps over the join tree: leaf to
// root (parent ⋉ child, in ear-removal order), then root to leaf (child
// ⋉ parent, reversed). After both sweeps the relations are globally
// consistent: every remaining tuple participates in at least one output
// tuple.
func fullReduce(x Exec, rels []*relation.Relation, tree *JoinTree) ([]*relation.Relation, int, error) {
	out := make([]*relation.Relation, len(rels))
	copy(out, rels)
	semijoins := 0
	reduce := func(dst, src int) error {
		reduced, err := SemijoinWith(out[dst], out[src], x.Gov)
		if err != nil {
			return err
		}
		semijoins++
		x.Metrics.Semijoin(reduced.Len())
		out[dst], err = x.Materialized(reduced)
		return err
	}
	for _, i := range tree.Order {
		if p := tree.Parent[i]; p >= 0 {
			if err := reduce(p, i); err != nil {
				return nil, semijoins, err
			}
		}
	}
	for k := len(tree.Order) - 1; k >= 0; k-- {
		i := tree.Order[k]
		if p := tree.Parent[i]; p >= 0 {
			if err := reduce(i, p); err != nil {
				return nil, semijoins, err
			}
		}
	}
	return out, semijoins, nil
}

// FullReduce runs Yannakakis' full reducer over an acyclic join and
// returns the reduced relations together with the number of semijoins
// performed. It reports an error when the relations' scheme hypergraph
// is cyclic.
func FullReduce(rels []*relation.Relation) ([]*relation.Relation, int, error) {
	tree, ok := NewPlan(rels...).JoinTree()
	if !ok {
		return nil, 0, fmt.Errorf("join: full reduction requires an acyclic join (schemes %v)", SchemesOf(rels))
	}
	return fullReduce(Exec{}, rels, tree)
}

var (
	_ Algorithm = Yannakakis{}
	_ nary      = Yannakakis{}
)
