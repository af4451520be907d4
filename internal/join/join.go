// Package join provides natural-join algorithms (hash, parallel hash,
// worst-case-optimal generic, Yannakakis) and an n-ary join executor with a
// greedy planner.
//
// Every join runs under an Exec — governor, metrics, span — because the
// paper's central phenomenon is that the *intermediate* results of a
// project–join expression can be inherently, exponentially larger than
// both the input relation and the final result (Cosmadakis 1983,
// Introduction). Exec.Materialized is where each of those intermediates
// is measured and budgeted; experiment E7 plots the result.
package join

import (
	"fmt"
	"strings"

	"relquery/internal/fault"
	"relquery/internal/relation"
)

// Algorithm computes the natural join of two relations.
type Algorithm interface {
	// Name identifies the algorithm in metrics, spans and CLI flags.
	Name() string
	// Join returns l ∗ r, governed, metered and traced by x.
	Join(x Exec, l, r *relation.Relation) (*relation.Relation, error)
}

// ByName returns the algorithm with the given name (one of Names).
func ByName(name string) (Algorithm, error) {
	switch name {
	case "hash":
		return Hash{}, nil
	case "parallel":
		return Parallel{}, nil
	case "wcoj":
		return Generic{}, nil
	case "yannakakis":
		return Yannakakis{}, nil
	default:
		return nil, fmt.Errorf("join: unknown algorithm %q (want one of %s)", name, strings.Join(Names(), ", "))
	}
}

// Names lists the available algorithm names: the strategies the auto
// selector can pick, plus the parallel hash join.
func Names() []string {
	return []string{"hash", "parallel", "wcoj", "yannakakis"}
}

// StrategyNames lists every value relquery's -join and relqueryd's
// ?strategy= accept: the concrete algorithms plus the "auto" selector
// (acyclic → yannakakis, cyclic with predicted blow-up → wcoj, else the
// binary default).
func StrategyNames() []string { return append(Names(), "auto") }

// combiner precomputes how to stitch a matching (left, right) tuple pair
// into a tuple over the join's output scheme: all of left's columns, then
// right's columns that are not shared.
type combiner struct {
	out     relation.Scheme
	restPos []int // positions in the right scheme
}

func newCombiner(l, r relation.Scheme) combiner {
	out := l.Union(r)
	rest := r.Minus(l)
	pos := make([]int, rest.Len())
	for i := 0; i < rest.Len(); i++ {
		j, _ := r.Pos(rest.Attr(i))
		pos[i] = j
	}
	return combiner{out: out, restPos: pos}
}

func (c combiner) combine(left, right relation.Tuple) relation.Tuple {
	t := make(relation.Tuple, 0, c.out.Len())
	t = append(t, left...)
	for _, j := range c.restPos {
		t = append(t, right[j])
	}
	return t
}

// sides is a binary hash join, oriented: build on the smaller input (ties
// build left), probe the other, stitch matches in left, right order.
type sides struct {
	combiner
	build, probe       *relation.Relation
	keyBuild, keyProbe keyCols
	buildIsLeft        bool
}

func orient(l, r *relation.Relation) sides {
	shared := l.Scheme().Intersect(r.Scheme())
	s := sides{
		combiner: newCombiner(l.Scheme(), r.Scheme()),
		build:    l, keyBuild: newKeyCols(l.Scheme(), shared),
		probe: r, keyProbe: newKeyCols(r.Scheme(), shared),
		buildIsLeft: true,
	}
	if r.Len() < l.Len() {
		s.build, s.probe = s.probe, s.build
		s.keyBuild, s.keyProbe = s.keyProbe, s.keyBuild
		s.buildIsLeft = false
	}
	return s
}

// pair is the output tuple of a matching build and probe tuple.
func (s *sides) pair(bt, pt relation.Tuple) relation.Tuple {
	if s.buildIsLeft {
		return s.combine(bt, pt)
	}
	return s.combine(pt, bt)
}

// Hash is a classic build/probe hash join on the shared attributes,
// building on the smaller input.
//
// Metrics: built counts build-side rows, probed counts probe-side rows.
// The governor is ticked once per build and probe tuple, with a
// row-budget check per probe batch, so one oversized hash join dies
// mid-probe instead of after materializing.
type Hash struct{}

// Name implements Algorithm.
func (Hash) Name() string { return "hash" }

// Join implements Algorithm.
func (Hash) Join(x Exec, l, r *relation.Relation) (*relation.Relation, error) {
	fault.Hit(fault.JoinStart)
	s := orient(l, r)
	table, err := buildTable(x.Gov, s.build, s.keyBuild)
	if err != nil {
		return nil, err
	}
	// A natural-join output tuple determines its source pair, so the
	// output is duplicate-free as emitted: no dedup, no index.
	var tuples []relation.Tuple
	n := 0
	s.probe.Each(func(pt relation.Tuple) bool {
		if n%checkBatch == 0 {
			fault.Hit(fault.JoinBatch)
			if err = x.Gov.CheckRows(len(tuples)); err != nil {
				return false
			}
		}
		n++
		if err = x.Gov.Tick(); err != nil {
			return false
		}
		// One probe tuple can match the entire build side under key
		// skew, so the emit loop ticks per output tuple: the per-probe
		// Tick above bounds nothing once a single bucket dominates.
		for i := table.first(pt.HashOf(s.keyProbe), pt, s.keyProbe); i >= 0; i = table.after(i) {
			if err = x.Gov.Tick(); err != nil {
				return false
			}
			tuples = append(tuples, s.pair(s.build.Tuple(i), pt))
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out, err := relation.FromDistinctTuples(s.out, tuples)
	if err != nil {
		return nil, err
	}
	x.Metrics.JoinWork(s.build.Len(), s.probe.Len(), out.Len())
	x.Metrics.ObserveJoin(out.Len())
	return x.Materialized(out)
}
