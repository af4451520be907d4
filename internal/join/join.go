// Package join provides natural-join algorithms (hash, worst-case-optimal
// generic, Yannakakis) and an n-ary join executor with a greedy planner. A
// join runs on the goroutine that called it; the package starts none.
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
	"relquery/internal/governor"
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

// emit appends to b the output rows of probe tuple pt, whose first match
// is build row first (-1 for none): one per match, in build order,
// stitched in left, right order.
func (s *sides) emit(g *governor.Governor, b *relation.Builder, table *hashTable, first int, pt relation.Tuple) error {
	for i := first; i >= 0; i = table.after(i) {
		// One probe tuple can match the entire build side under key
		// skew, so the emit loop ticks per output tuple: a per-probe
		// Tick bounds nothing once a single bucket dominates.
		if err := g.Tick(); err != nil {
			return err
		}
		if s.buildIsLeft {
			b.Concat(s.build.Tuple(i), pt, s.restPos)
		} else {
			b.Concat(pt, s.build.Tuple(i), s.restPos)
		}
	}
	return nil
}

// Hash is a classic build/probe hash join on the shared attributes,
// building on the smaller input. It counts before it materializes: the
// probe pass only looks each probe row's matches up, so the output's
// cardinality is known — and checked against the row and memory budgets —
// before the output is allocated, at exactly that size, and filled.
//
// Metrics: built counts build-side rows, probed counts probe-side rows.
// The governor is ticked once per build and probe tuple and once per
// output tuple, with a row-budget check per probe batch, so one oversized
// hash join dies mid-probe, before it has materialized a row.
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
	// The count pass: heads[p] is probe row p's first match (table.after
	// walks the rest), rows the matches so far — the output's cardinality,
	// known before a single output row exists.
	heads := make([]int32, s.probe.Len())
	rows := 0
	for p := 0; p < s.probe.Len(); p++ {
		if p%checkBatch == 0 {
			fault.Hit(fault.JoinBatch)
			if err := x.Gov.CheckRows(rows); err != nil {
				return nil, err
			}
		}
		if err := x.Gov.Tick(); err != nil {
			return nil, err
		}
		pt := s.probe.Tuple(p)
		first, n := table.matches(pt.HashOf(s.keyProbe), pt, s.keyProbe)
		heads[p] = int32(first)
		rows += n
	}
	x.Metrics.JoinWork(s.build.Len(), s.probe.Len(), rows)
	if err := x.Sized(rows, s.out.Len()); err != nil {
		return nil, err
	}
	// Only a count the budget accepted becomes an intermediate.
	x.Metrics.ObserveJoin(rows)
	// A natural-join output tuple determines its source pair, so the
	// output is duplicate-free as emitted: no dedup, no index.
	b := relation.NewBuilder(s.out, rows)
	for p := 0; p < s.probe.Len(); p++ {
		if err := s.emit(x.Gov, b, table, int(heads[p]), s.probe.Tuple(p)); err != nil {
			return nil, err
		}
	}
	return b.Relation(), nil
}
