// Package join provides natural-join algorithms (hash, worst-case-optimal
// generic, Yannakakis) and an n-ary join executor with a greedy planner. A
// join runs on the goroutine that called it; the package starts none.
//
// Every join runs under an Exec — governor, metrics, span — because the
// paper's central phenomenon is that the *intermediate* results of a
// project–join expression can be inherently, exponentially larger than
// both the input relation and the final result (Cosmadakis 1983,
// Introduction). Each of those intermediates is measured and budgeted
// once: on its count, before it exists, where its producer can count
// first (Exec.Sized), else as soon as it exists (Exec.Materialized);
// experiment E7 plots the result. The
// binary hash plan's intermediates are not relations: a row of one is a
// row id into each input it covers, and only the node's answer holds
// values, so the blow-up is paid in 4-byte ids, not in copied values.
package join

import (
	"fmt"
	"strings"

	"relquery/internal/relation"
)

// Algorithm is a join strategy: Hash, Generic or Yannakakis. The set is
// closed by its unexported method, the one Multi runs a strategy through,
// so Multi has no branch for a strategy it does not know.
type Algorithm interface {
	// Name identifies the algorithm in metrics, spans and CLI flags.
	Name() string
	// joinAll joins the plan's inputs, at least two, under x; order
	// sequences the steps of the binary plan, which only Hash runs.
	joinAll(x Exec, p *Plan, order Order) (*relation.Relation, error)
}

// ByName returns the algorithm with the given name (one of Names).
func ByName(name string) (Algorithm, error) {
	switch name {
	case "hash":
		return Hash{}, nil
	case "wcoj":
		return Generic{}, nil
	case "yannakakis":
		return Yannakakis{}, nil
	default:
		return nil, fmt.Errorf("join: unknown algorithm %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
}

// Names lists the available algorithm names: the strategies the auto
// selector can pick.
func Names() []string {
	return []string{"hash", "wcoj", "yannakakis"}
}

// StrategyNames lists every value relquery's -join and relqueryd's
// ?strategy= accept: the concrete algorithms plus the "auto" selector
// (acyclic → yannakakis, cyclic with predicted blow-up → wcoj, else the
// binary default).
func StrategyNames() []string { return append(Names(), "auto") }

// Hash is a classic build/probe hash join on the shared attributes,
// building on the smaller input. It counts before it materializes: the
// probe pass only looks each probe row's matches up, so the output's
// cardinality is known — and checked against the row and memory budgets —
// before the output is allocated, at exactly that size, and filled. Over
// more than two inputs (Multi) it runs as one binary plan whose
// intermediates are row ids into the inputs and whose last step alone
// writes values (hashPlan) — into Exec.Out, when set, in sorted order; a
// join of two relations is that plan's one-step case.
//
// Metrics: built counts build-side rows, probed counts probe-side rows.
// The governor is ticked once per build and probe tuple and once per
// output tuple, with a row-budget check per probe batch, so one oversized
// hash join dies mid-probe, before it has materialized a row.
type Hash struct{}

// Name implements Algorithm.
func (Hash) Name() string { return "hash" }

// Join returns l ∗ r, governed, metered and traced by x: the two-input
// case of Multi.
func (Hash) Join(x Exec, l, r *relation.Relation) (*relation.Relation, error) {
	return hashPlan(x, []*relation.Relation{l, r}, Sequential)
}

func (Hash) joinAll(x Exec, p *Plan, order Order) (*relation.Relation, error) {
	if order != Sequential && order != Greedy {
		return nil, fmt.Errorf("join: unknown order %v", order)
	}
	return hashPlan(x, p.Inputs, order)
}
