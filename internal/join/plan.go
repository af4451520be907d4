package join

import (
	"relquery/internal/relation"
)

// Plan is what is known about one n-ary join node before it runs: its
// materialized inputs and the planning facts derived from them — the GYO
// join tree (and with it the α-acyclicity verdict), the minimizing
// fractional edge cover with its AGM bound, and the greedy binary plan's
// simulated peaks. The bound and the cover depend only on the node's
// hypergraph and input cardinalities (Atserias–Grohe–Marx), the tree only
// on the hypergraph, so each has one value per node; the strategy
// selector, the admission gates, the span annotation, the generic join's
// attribute order and Yannakakis' sweeps all read them here instead of
// deriving them again.
//
// Every fact is computed on first read and memoized, never eagerly: which
// facts a node needs depends on the strategy it ends up on. An acyclic
// node under the auto selector is decided by GYO alone and must not pay
// the simulation's full scan of every input row (Analyze); an untraced,
// un-admitted binary plan reads nothing at all.
//
// A Plan belongs to one execution of one join node — the degraded retry
// included — and is not safe for concurrent use.
type Plan struct {
	// Inputs are the node's materialized arguments, in argument order.
	Inputs []*relation.Relation

	edges []relation.Scheme
	sizes []int

	treeDone, coverDone, peaksDone bool

	tree       *JoinTree
	cover      []float64
	bound      float64
	est, worst float64
}

// NewPlan returns the plan of the natural join of inputs. It computes
// nothing.
func NewPlan(inputs ...*relation.Relation) *Plan { return &Plan{Inputs: inputs} }

// hypergraph returns the join hypergraph's edges — the input schemes —
// and the input cardinalities, both in input order.
func (p *Plan) hypergraph() ([]relation.Scheme, []int) {
	if p.edges == nil {
		p.edges = SchemesOf(p.Inputs)
		p.sizes = make([]int, len(p.Inputs))
		for i, r := range p.Inputs {
			p.sizes[i] = r.Len()
		}
	}
	return p.edges, p.sizes
}

// JoinTree returns the GYO join tree of the inputs and true when the
// node is α-acyclic, nil and false when it is cyclic (see JoinTreeOf).
func (p *Plan) JoinTree() (*JoinTree, bool) {
	if !p.treeDone {
		edges, _ := p.hypergraph()
		p.tree, _ = JoinTreeOf(edges)
		p.treeDone = true
	}
	return p.tree, p.tree != nil
}

// Cover returns the minimizing fractional edge cover, one weight per
// input, and the AGM bound it yields (see FractionalCover). The slice is
// the memoized one: callers must not modify it.
func (p *Plan) Cover() ([]float64, float64) {
	if !p.coverDone {
		p.cover, p.bound = FractionalCover(p.hypergraph())
		p.coverDone = true
	}
	return p.cover, p.bound
}

// AGMBound returns the AGM worst-case cardinality bound of the join.
func (p *Plan) AGMBound() float64 {
	_, bound := p.Cover()
	return bound
}

// Peaks returns the two peaks of the greedy binary plan's simulation:
// the System R estimate (see PredictedPeakGreedy) and the worst case
// over intermediate accumulators (see WorstCasePeakGreedy).
func (p *Plan) Peaks() (est, worst float64) {
	if !p.peaksDone {
		p.est, p.worst = p.simulateGreedy()
		p.peaksDone = true
	}
	return p.est, p.worst
}

// Peak returns the larger of the two simulated peaks: the number the
// admission gates compare against the intermediate-row budget and the
// auto selector compares against the AGM bound.
func (p *Plan) Peak() float64 {
	est, worst := p.Peaks()
	return max(est, worst)
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
