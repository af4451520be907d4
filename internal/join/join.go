// Package join provides natural-join algorithms (nested-loop, hash,
// sort-merge, parallel hash, worst-case-optimal generic, Yannakakis) and
// an n-ary join executor with a greedy planner.
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
	"sort"

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

// ByName returns the algorithm with the given name ("hash", "sortmerge",
// "nestedloop", "parallel", "wcoj", "yannakakis").
func ByName(name string) (Algorithm, error) {
	switch name {
	case "hash":
		return Hash{}, nil
	case "sortmerge":
		return SortMerge{}, nil
	case "nestedloop":
		return NestedLoop{}, nil
	case "parallel":
		return Parallel{}, nil
	case "wcoj":
		return Generic{}, nil
	case "yannakakis":
		return Yannakakis{}, nil
	default:
		return nil, fmt.Errorf("join: unknown algorithm %q (want hash, sortmerge, nestedloop, parallel, wcoj or yannakakis)", name)
	}
}

// Names lists the available algorithm names.
func Names() []string {
	return []string{"hash", "sortmerge", "nestedloop", "parallel", "wcoj", "yannakakis"}
}

// StrategyNames lists every value the CLIs accept for -join: the concrete
// algorithms plus the "auto" selector (acyclic → yannakakis, cyclic with
// predicted blow-up → wcoj, else the binary default).
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

// NestedLoop is the textbook O(|l|·|r|) join. It is the reference
// implementation the other algorithms are tested against.
//
// Metrics: probed counts the |l|·|r| pairs examined, built is 0 (no build
// structure). The governor is ticked once per examined pair, so a
// canceled or over-budget evaluation aborts mid-scan.
type NestedLoop struct{}

// Name implements Algorithm.
func (NestedLoop) Name() string { return "nestedloop" }

// Join implements Algorithm.
func (NestedLoop) Join(x Exec, l, r *relation.Relation) (*relation.Relation, error) {
	fault.Hit(fault.JoinStart)
	shared := l.Scheme().Intersect(r.Scheme())
	kl := newKeyCols(l.Scheme(), shared)
	kr := newKeyCols(r.Scheme(), shared)
	c := newCombiner(l.Scheme(), r.Scheme())
	out := relation.New(c.out)
	var err error
	n := 0
	l.Each(func(lt relation.Tuple) bool {
		r.Each(func(rt relation.Tuple) bool {
			if n%checkBatch == 0 {
				fault.Hit(fault.JoinBatch)
				if err = x.Gov.CheckRows(out.Len()); err != nil {
					return false
				}
			}
			n++
			if err = x.Gov.Tick(); err != nil {
				return false
			}
			if sameKey(lt, kl, rt, kr) {
				if _, err = out.Add(c.combine(lt, rt)); err != nil {
					return false
				}
			}
			return true
		})
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	x.Metrics.JoinWork(0, l.Len()*r.Len(), out.Len())
	x.Metrics.ObserveJoin(out.Len())
	return x.Materialized(out)
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

// SortMerge sorts both inputs on the shared-attribute key and merges
// matching groups.
//
// Metrics: built counts the rows sorted (both sides), probed counts the
// rows consumed by the merge. The governor is ticked once per collected
// row and per emitted pair, with a row-budget check per output batch.
type SortMerge struct{}

// Name implements Algorithm.
func (SortMerge) Name() string { return "sortmerge" }

// Join implements Algorithm.
func (SortMerge) Join(x Exec, l, r *relation.Relation) (*relation.Relation, error) {
	fault.Hit(fault.JoinStart)
	shared := l.Scheme().Intersect(r.Scheme())
	kl := newKeyCols(l.Scheme(), shared)
	kr := newKeyCols(r.Scheme(), shared)
	c := newCombiner(l.Scheme(), r.Scheme())

	type keyed struct {
		key relation.Tuple
		t   relation.Tuple
	}
	collect := func(rel *relation.Relation, ke keyCols) ([]keyed, error) {
		rows := make([]keyed, 0, rel.Len())
		var err error
		rel.Each(func(t relation.Tuple) bool {
			if err = x.Gov.Tick(); err != nil {
				return false
			}
			rows = append(rows, keyed{key: ke.values(t), t: t})
			return true
		})
		if err != nil {
			return nil, err
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].key.Less(rows[j].key) })
		return rows, nil
	}
	ls, err := collect(l, kl)
	if err != nil {
		return nil, err
	}
	rs, err := collect(r, kr)
	if err != nil {
		return nil, err
	}

	// Each (left, right) pair is emitted once, so the output is
	// duplicate-free as emitted.
	var tuples []relation.Tuple
	i, j, n := 0, 0, 0
	for i < len(ls) && j < len(rs) {
		switch {
		case ls[i].key.Less(rs[j].key):
			i++
		case rs[j].key.Less(ls[i].key):
			j++
		default:
			// Find the extent of the equal-key groups on both sides.
			i2 := i
			for i2 < len(ls) && ls[i2].key.Equal(ls[i].key) {
				i2++
			}
			j2 := j
			for j2 < len(rs) && rs[j2].key.Equal(rs[j].key) {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					if n%checkBatch == 0 {
						fault.Hit(fault.JoinBatch)
						if err := x.Gov.CheckRows(len(tuples)); err != nil {
							return nil, err
						}
					}
					n++
					if err := x.Gov.Tick(); err != nil {
						return nil, err
					}
					tuples = append(tuples, c.combine(ls[a].t, rs[b].t))
				}
			}
			i, j = i2, j2
		}
	}
	out, err := relation.FromDistinctTuples(c.out, tuples)
	if err != nil {
		return nil, err
	}
	x.Metrics.JoinWork(l.Len()+r.Len(), l.Len()+r.Len(), out.Len())
	x.Metrics.ObserveJoin(out.Len())
	return x.Materialized(out)
}
