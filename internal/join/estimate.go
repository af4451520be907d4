package join

import (
	"relquery/internal/relation"
)

// Cardinality estimation in the classic System R style: the estimated size
// of a natural join is the product of the input sizes divided, for each
// shared attribute, by the larger of the two distinct-value counts —
// assuming uniformity and inclusion, the textbook selectivity model.

// ColumnStats holds per-attribute distinct-value counts for one relation.
type ColumnStats struct {
	// Rows is the relation's cardinality.
	Rows int
	// Distinct maps each attribute to its number of distinct values.
	Distinct map[relation.Attribute]int
}

// Analyze computes column statistics for a relation in one pass.
func Analyze(r *relation.Relation) ColumnStats {
	s := ColumnStats{
		Rows:     r.Len(),
		Distinct: make(map[relation.Attribute]int, r.Scheme().Len()),
	}
	scheme := r.Scheme()
	sets := make([]map[relation.Value]struct{}, scheme.Len())
	for i := range sets {
		sets[i] = make(map[relation.Value]struct{})
	}
	r.Each(func(t relation.Tuple) bool {
		for i, v := range t {
			sets[i][v] = struct{}{}
		}
		return true
	})
	for i := 0; i < scheme.Len(); i++ {
		s.Distinct[scheme.Attr(i)] = len(sets[i])
	}
	return s
}

// simulateGreedy runs the greedy binary planner over statistics instead
// of relations — the same pairing rule as pickPair, scored by estimated
// instead of actual sizes — and returns both the System R estimated peak
// and the worst-case (AGM) peak over intermediate accumulators. Analyze
// scans every row of every input: Plan.Peaks is the only caller.
func (p *Plan) simulateGreedy() (estPeak, worstPeak float64) {
	inputs := p.Inputs
	if len(inputs) < 2 {
		return 0, 0
	}
	edges, inputSizes := p.hypergraph()
	type estRel struct {
		scheme   relation.Scheme
		rows     float64
		distinct map[relation.Attribute]float64
	}
	estimate := func(l, r estRel) float64 {
		est := l.rows * r.rows
		for _, a := range l.scheme.Intersect(r.scheme).Attrs() {
			if v := max(l.distinct[a], r.distinct[a]); v > 1 {
				est /= v
			}
		}
		return est
	}
	pending := make([]estRel, len(inputs))
	base := make([][]int, len(inputs))
	for i, r := range inputs {
		s := Analyze(r)
		d := make(map[relation.Attribute]float64, len(s.Distinct))
		for a, v := range s.Distinct {
			d[a] = float64(v)
		}
		pending[i] = estRel{scheme: edges[i], rows: float64(s.Rows), distinct: d}
		base[i] = []int{i}
	}
	// subsetBound is the AGM bound of the base relations an accumulator
	// holds.
	subsetBound := func(idx []int) float64 {
		schemes := make([]relation.Scheme, len(idx))
		sizes := make([]int, len(idx))
		for k, i := range idx {
			schemes[k] = edges[i]
			sizes[k] = inputSizes[i]
		}
		return AGMBound(schemes, sizes)
	}
	peak := 0.0
	for len(pending) > 1 {
		// Prefer shared-attribute pairs, then the smallest estimated join
		// size.
		bestI, bestJ := 0, 1
		bestShared := false
		bestCost := -1.0
		for i := 0; i < len(pending); i++ {
			for j := i + 1; j < len(pending); j++ {
				shared := !pending[i].scheme.Disjoint(pending[j].scheme)
				cost := estimate(pending[i], pending[j])
				switch {
				case shared && !bestShared,
					shared == bestShared && (bestCost < 0 || cost < bestCost):
					bestI, bestJ, bestShared, bestCost = i, j, shared, cost
				}
			}
		}
		l, r := pending[bestI], pending[bestJ]
		est := estimate(l, r)
		if est > peak {
			peak = est
		}
		merged := estRel{
			scheme:   l.scheme.Union(r.scheme),
			rows:     est,
			distinct: make(map[relation.Attribute]float64, l.scheme.Len()+r.scheme.Len()),
		}
		for _, a := range merged.scheme.Attrs() {
			v := 0.0
			switch {
			case l.scheme.Has(a) && r.scheme.Has(a):
				v = min(l.distinct[a], r.distinct[a])
			case l.scheme.Has(a):
				v = l.distinct[a]
			default:
				v = r.distinct[a]
			}
			merged.distinct[a] = min(v, max(est, 1))
		}
		mergedBase := append(append([]int{}, base[bestI]...), base[bestJ]...)
		if len(pending) > 2 { // intermediate, not the final full-set result
			if wc := subsetBound(mergedBase); wc > worstPeak {
				worstPeak = wc
			}
		}
		pending = append(pending[:bestJ], pending[bestJ+1:]...)
		base = append(base[:bestJ], base[bestJ+1:]...)
		pending[bestI] = merged
		base[bestI] = mergedBase
	}
	return peak, worstPeak
}
