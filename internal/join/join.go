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

// keyExtractor pulls the shared-attribute key out of a tuple.
type keyExtractor struct {
	pos []int
}

func newKeyExtractor(s, shared relation.Scheme) keyExtractor {
	pos := make([]int, shared.Len())
	for i := 0; i < shared.Len(); i++ {
		j, _ := s.Pos(shared.Attr(i))
		pos[i] = j
	}
	return keyExtractor{pos: pos}
}

func (k keyExtractor) key(t relation.Tuple) string {
	sub := make(relation.Tuple, len(k.pos))
	for i, j := range k.pos {
		sub[i] = t[j]
	}
	return sub.Key()
}

func (k keyExtractor) values(t relation.Tuple) relation.Tuple {
	sub := make(relation.Tuple, len(k.pos))
	for i, j := range k.pos {
		sub[i] = t[j]
	}
	return sub
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
	kl := newKeyExtractor(l.Scheme(), shared)
	kr := newKeyExtractor(r.Scheme(), shared)
	c := newCombiner(l.Scheme(), r.Scheme())
	out := relation.New(c.out)
	var err error
	n := 0
	l.Each(func(lt relation.Tuple) bool {
		lk := kl.key(lt)
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
			if kr.key(rt) == lk {
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
	shared := l.Scheme().Intersect(r.Scheme())
	kl := newKeyExtractor(l.Scheme(), shared)
	kr := newKeyExtractor(r.Scheme(), shared)
	c := newCombiner(l.Scheme(), r.Scheme())
	out := relation.New(c.out)

	// Build on the smaller input (ties build left), probe the other.
	build, probe := l, r
	keyBuild, keyProbe := kl, kr
	buildIsLeft := true
	if r.Len() < l.Len() {
		build, probe = r, l
		keyBuild, keyProbe = kr, kl
		buildIsLeft = false
	}
	table := make(map[string][]relation.Tuple, build.Len())
	var err error
	build.Each(func(t relation.Tuple) bool {
		if err = x.Gov.Tick(); err != nil {
			return false
		}
		k := keyBuild.key(t)
		table[k] = append(table[k], t)
		return true
	})
	if err != nil {
		return nil, err
	}
	n := 0
	probe.Each(func(pt relation.Tuple) bool {
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
		// One probe tuple can match the entire build side under key
		// skew, so the emit loop ticks per output tuple: the per-probe
		// Tick above bounds nothing once a single bucket dominates.
		for _, bt := range table[keyProbe.key(pt)] {
			if err = x.Gov.Tick(); err != nil {
				return false
			}
			var ot relation.Tuple
			if buildIsLeft {
				ot = c.combine(bt, pt)
			} else {
				ot = c.combine(pt, bt)
			}
			if _, err = out.Add(ot); err != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	x.Metrics.JoinWork(build.Len(), probe.Len(), out.Len())
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
	kl := newKeyExtractor(l.Scheme(), shared)
	kr := newKeyExtractor(r.Scheme(), shared)
	c := newCombiner(l.Scheme(), r.Scheme())
	out := relation.New(c.out)

	type keyed struct {
		key relation.Tuple
		t   relation.Tuple
	}
	collect := func(rel *relation.Relation, ke keyExtractor) ([]keyed, error) {
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
						if err := x.Gov.CheckRows(out.Len()); err != nil {
							return nil, err
						}
					}
					n++
					if err := x.Gov.Tick(); err != nil {
						return nil, err
					}
					if _, err := out.Add(c.combine(ls[a].t, rs[b].t)); err != nil {
						return nil, err
					}
				}
			}
			i, j = i2, j2
		}
	}
	x.Metrics.JoinWork(l.Len()+r.Len(), l.Len()+r.Len(), out.Len())
	x.Metrics.ObserveJoin(out.Len())
	return x.Materialized(out)
}
