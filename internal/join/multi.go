package join

import (
	"fmt"

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

// nary is implemented by the strategies that join all inputs of an n-ary
// node in one pass (Generic, Yannakakis) instead of as a plan of binary
// joins.
type nary interface {
	JoinAll(x Exec, p *Plan) (*relation.Relation, error)
}

// onePass returns alg's one-pass form, or nil when alg only joins
// pairwise. It is the only n-ary capability check in the tree.
func onePass(alg Algorithm) nary {
	n, _ := alg.(nary)
	return n
}

// OnePass reports whether Multi hands alg all inputs of a node at once
// instead of planning binary joins. The one-pass strategies bound their
// intermediates by their output, which is what admission control and
// graceful degradation need to know about a strategy.
func OnePass(alg Algorithm) bool { return onePass(alg) != nil }

// Multi computes the natural join of the plan's inputs under x: in one
// pass when alg is a one-pass strategy, else with alg for each binary
// join, combining in the given order. Joining zero relations is an error
// (the neutral element — the relation over the empty scheme holding the
// empty tuple — is almost never what a caller wants); joining one
// relation returns it unchanged, folded into the intermediate statistics.
func Multi(x Exec, p *Plan, alg Algorithm, order Order) (*relation.Relation, error) {
	inputs := p.Inputs
	switch len(inputs) {
	case 0:
		return nil, fmt.Errorf("join: Multi requires at least one input")
	case 1:
		x.Metrics.ObserveIntermediate(inputs[0].Len())
		return inputs[0], nil
	}
	if n := onePass(alg); n != nil {
		return n.JoinAll(x, p)
	}
	switch order {
	case Sequential:
		return multiSequential(x, inputs, alg)
	case Greedy:
		return multiGreedy(x, inputs, alg)
	default:
		return nil, fmt.Errorf("join: unknown order %v", order)
	}
}

func multiSequential(x Exec, inputs []*relation.Relation, alg Algorithm) (*relation.Relation, error) {
	acc := inputs[0]
	for _, next := range inputs[1:] {
		var err error
		acc, err = alg.Join(x, acc, next)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

func multiGreedy(x Exec, inputs []*relation.Relation, alg Algorithm) (*relation.Relation, error) {
	pending := make([]*relation.Relation, len(inputs))
	copy(pending, inputs)

	for len(pending) > 1 {
		bi, bj := pickPair(pending)
		joined, err := alg.Join(x, pending[bi], pending[bj])
		if err != nil {
			return nil, err
		}
		// Remove bj first (bj > bi), then replace bi.
		pending = append(pending[:bj], pending[bj+1:]...)
		pending[bi] = joined
	}
	return pending[0], nil
}

// pickPair chooses the next pair to join: among pairs whose schemes share
// at least one attribute, the one with the smallest size product; if no
// pair shares attributes, the overall smallest product (an unavoidable
// cross product). Returns indices with i < j.
func pickPair(rels []*relation.Relation) (int, int) {
	bestI, bestJ := 0, 1
	bestShared := false
	bestCost := -1
	for i := 0; i < len(rels); i++ {
		for j := i + 1; j < len(rels); j++ {
			shared := !rels[i].Scheme().Disjoint(rels[j].Scheme())
			cost := rels[i].Len() * rels[j].Len()
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
