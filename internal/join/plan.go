package join

import (
	"sync"

	"relquery/internal/obs"
	"relquery/internal/relation"
)

// Facts is what is known about one n-ary join node before it runs, apart
// from the inputs themselves: the GYO join tree (and with it the
// α-acyclicity verdict), the AGM bound, and the greedy binary plan's
// simulated peaks. The tree depends only on the node's hypergraph, the
// bound on the hypergraph and the input cardinalities
// (Atserias–Grohe–Marx), the peaks on those plus per-column distinct
// counts — all functions of the inputs' content, none of the request, and
// all held by input index: a Facts references no relation, so it may
// outlive the inputs it was computed from and serve every later plan over
// equal ones (algebra.SubexprCache keeps them by content key across
// requests).
//
// The facts also hold each one-pass join's shape: what the tree join
// (treeShape) and the generic join (genericShape) derive from the schemes
// and the tree alone — output scheme, column sources, attribute order and
// the index maps over it — so a warm plan runs either join without
// rebuilding anything that is not a function of the rows.
//
// Every fact is computed on first read and published once: which facts a
// node needs depends on the strategy it ends up on. An acyclic node under
// the auto selector is decided by GYO alone and must not pay the
// simulation's scan of every input row (Analyze); an untraced, un-admitted
// binary plan reads nothing at all. Any number of plans may read one Facts
// concurrently; the first reader of a fact computes it from its own inputs
// and nothing writes it afterwards. The zero Facts knows nothing yet.
type Facts struct {
	treeOnce, boundOnce, peaksOnce  sync.Once
	treeShapeOnce, genericShapeOnce sync.Once

	tree         *JoinTree
	bound        float64
	est, worst   float64
	treeShape    *treeShape
	genericShape *genericShape
}

// Plan returns the plan of the natural join of inputs that reads and
// completes f. The inputs must be the ones f describes, in the same order.
// It is a value, so that a caller running one join node at a time keeps it
// in one place from node to node.
func (f *Facts) Plan(inputs ...*relation.Relation) Plan {
	return Plan{Inputs: inputs, facts: f}
}

// Plan is one execution's view of one n-ary join node: its materialized
// inputs and the node's Facts. The strategy selector, the admission gates,
// the span annotation and the one-pass joins all read the facts here instead of deriving them again. A Plan
// belongs to one execution and is not safe for concurrent use; its Facts
// is.
type Plan struct {
	// Inputs are the node's materialized arguments, in argument order.
	Inputs []*relation.Relation
	// Metrics, when non-nil, counts the cover LPs this plan solves.
	Metrics *obs.Metrics

	facts *Facts
	hg    *hypergraph
	onto  *relation.Scheme // the output scheme of a projected node (Onto)
}

// Onto makes p the plan of π_onto over its join and returns it: one
// projected join node, whose answer is the projection and whose peak is
// at most the join's (Multi). onto must be a subset of the inputs'
// attributes, and the plan's facts must be a projected node's of the same
// onto: the generic join's shape depends on it.
func (p *Plan) Onto(onto relation.Scheme) *Plan {
	p.onto = &onto
	return p
}

// out returns the node's output scheme: the projection's, or the inputs'
// left-to-right union.
func (p *Plan) out() relation.Scheme {
	if p.onto != nil {
		return *p.onto
	}
	return unionScheme(p.Inputs)
}

// NewPlan returns the plan of the natural join of inputs over facts of its
// own. It computes nothing.
func NewPlan(inputs ...*relation.Relation) *Plan {
	p := new(Facts).Plan(inputs...)
	return &p
}

// hypergraph returns the join hypergraph in index form, built on the first
// read of a fact nobody has computed yet.
func (p *Plan) hypergraph() *hypergraph {
	if p.hg == nil {
		sizes := make([]int, len(p.Inputs))
		for i, r := range p.Inputs {
			sizes[i] = r.Len()
		}
		p.hg = newHypergraph(SchemesOf(p.Inputs), sizes)
	}
	return p.hg
}

// JoinTree returns the GYO join tree of the inputs and true when the
// node is α-acyclic, nil and false when it is cyclic (see JoinTreeOf).
// The tree is shared: callers must not modify it.
func (p *Plan) JoinTree() (*JoinTree, bool) {
	f := p.facts
	f.treeOnce.Do(func() { f.tree, _ = JoinTreeOf(p.hypergraph().schemes) })
	return f.tree, f.tree != nil
}

// AGMBound returns the AGM worst-case cardinality bound of the join (see
// FractionalCover).
func (p *Plan) AGMBound() float64 {
	f := p.facts
	f.boundOnce.Do(func() { _, f.bound = p.hypergraph().cover(nil, false, p.Metrics) })
	return f.bound
}

// Peaks returns the two peaks of the greedy binary plan's simulation:
// the System R estimate (see PredictedPeakGreedy) and the worst case
// over intermediate accumulators (see WorstCasePeakGreedy).
func (p *Plan) Peaks() (est, worst float64) {
	f := p.facts
	f.peaksOnce.Do(func() { f.est, f.worst = p.simulateGreedy() })
	return f.est, f.worst
}

// Peak returns the larger of the two simulated peaks: the number the
// admission gates compare against the intermediate-row budget and
// PeakAboveBound against the AGM bound.
func (p *Plan) Peak() float64 {
	est, worst := p.Peaks()
	return max(est, worst)
}

// PeakAboveBound reports whether the greedy binary plan is predicted to
// materialize more rows than the whole join can hold: Peak above a
// non-zero AGM bound by more than the LP's own precision. Both numbers
// are LP results, so a peak that equals the bound — an accumulator that
// already holds the join's worst case — may land on either side of it by
// rounding; such a tie reads as not above.
func (p *Plan) PeakAboveBound() bool {
	bound := p.AGMBound()
	return bound > 0 && p.Peak() > bound*(1+lpEps)
}

// AGMBoundOf is Plan.AGMBound over materialized relations.
func AGMBoundOf(rels []*relation.Relation) float64 { return NewPlan(rels...).AGMBound() }

// PredictedPeakGreedy simulates the greedy binary planner purely over
// System R estimates — no joins are executed — and returns the largest
// intermediate result a binary plan over these inputs is predicted to
// materialize. The worst-case-optimal auto-selector compares it against
// the n-ary AGM bound: a predicted peak above the bound means every
// binary combination step is expected to build more tuples than the
// n-ary output can justify, the regime of the paper's Lemma 1 gadgets.
// Inputs with fewer than two relations predict no intermediates (0).
func PredictedPeakGreedy(inputs []*relation.Relation) float64 {
	est, _ := NewPlan(inputs...).Peaks()
	return est
}

// WorstCasePeakGreedy simulates the same greedy pairing but scores each
// intermediate accumulator by the AGM bound of the base relations merged
// into it — the largest result a binary plan could be FORCED to
// materialize at that step, independent of the data's correlations. The
// estimate-based peak misses the Lemma 1 gadgets precisely because their
// correlations break System R's independence assumption; the worst-case
// peak does not. The final accumulator (the full input set) is excluded:
// its bound is the n-ary AGM bound itself, which no plan can avoid.
func WorstCasePeakGreedy(inputs []*relation.Relation) float64 {
	_, worst := NewPlan(inputs...).Peaks()
	return worst
}
