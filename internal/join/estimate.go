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

// EstimateJoinSize predicts |l ∗ r| from the two relations' statistics and
// schemes: |l|·|r| / ∏_{a shared} max(V(a,l), V(a,r)).
func EstimateJoinSize(lScheme relation.Scheme, l ColumnStats, rScheme relation.Scheme, r ColumnStats) float64 {
	est := float64(l.Rows) * float64(r.Rows)
	shared := lScheme.Intersect(rScheme)
	for _, a := range shared.Attrs() {
		vl, vr := l.Distinct[a], r.Distinct[a]
		if vl < vr {
			vl = vr
		}
		if vl > 1 {
			est /= float64(vl)
		}
	}
	return est
}

// PredictedPeakGreedy simulates the greedy binary planner purely over
// System R estimates — no joins are executed — and returns the largest
// intermediate result a binary plan over these inputs is predicted to
// materialize. The worst-case-optimal auto-selector compares it against
// the n-ary AGM bound: a predicted peak above the bound means every
// binary combination step is expected to build more tuples than the
// n-ary output can justify, the regime of the paper's Lemma 1 gadgets.
// Inputs with fewer than two relations predict no intermediates (0).
func PredictedPeakGreedy(inputs []*relation.Relation) float64 {
	est, _ := greedyPeaks(inputs)
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
	_, worst := greedyPeaks(inputs)
	return worst
}

// GreedyPeak is max(PredictedPeakGreedy, WorstCasePeakGreedy) from one
// run of the simulation: the peak the admission gate and the wcoj
// auto-selector compare against their budgets.
func GreedyPeak(inputs []*relation.Relation) float64 {
	est, worst := greedyPeaks(inputs)
	return max(est, worst)
}

// greedyPeaks runs the shared greedy-plan simulation and returns both the
// System R estimated peak and the worst-case (AGM) peak over intermediate
// accumulators.
func greedyPeaks(inputs []*relation.Relation) (estPeak, worstPeak float64) {
	if len(inputs) < 2 {
		return 0, 0
	}
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
		pending[i] = estRel{scheme: r.Scheme(), rows: float64(s.Rows), distinct: d}
		base[i] = []int{i}
	}
	// subsetBound is the AGM bound of the base relations an accumulator
	// holds.
	subsetBound := func(idx []int) float64 {
		schemes := make([]relation.Scheme, len(idx))
		sizes := make([]int, len(idx))
		for k, i := range idx {
			schemes[k] = inputs[i].Scheme()
			sizes[k] = inputs[i].Len()
		}
		return AGMBound(schemes, sizes)
	}
	peak := 0.0
	for len(pending) > 1 {
		// Mirror pickPairEstimated: prefer shared-attribute pairs, then
		// the smallest estimated join size.
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

// PlanEstimated orders an n-ary join greedily by ESTIMATED intermediate
// size (instead of Greedy's actual-size product): repeatedly join the pair
// with the smallest estimate, preferring pairs that share attributes. It
// returns the join result; x.Metrics records the actual intermediate
// sizes so callers can compare prediction against reality.
func PlanEstimated(x Exec, inputs []*relation.Relation, alg Algorithm) (*relation.Relation, error) {
	if len(inputs) == 0 {
		return Multi(x, inputs, alg, Greedy) // delegate the error
	}
	pending := make([]*relation.Relation, len(inputs))
	copy(pending, inputs)
	pstats := make([]ColumnStats, len(inputs))
	for i, r := range pending {
		pstats[i] = Analyze(r)
	}
	for len(pending) > 1 {
		bi, bj := pickPairEstimated(pending, pstats)
		joined, err := alg.Join(x, pending[bi], pending[bj])
		if err != nil {
			return nil, err
		}
		pending = append(pending[:bj], pending[bj+1:]...)
		pstats = append(pstats[:bj], pstats[bj+1:]...)
		pending[bi] = joined
		pstats[bi] = Analyze(joined)
	}
	return pending[0], nil
}

// pickPairEstimated chooses the pair with the smallest estimated join
// size, preferring shared-attribute pairs over cross products.
func pickPairEstimated(rels []*relation.Relation, stats []ColumnStats) (int, int) {
	bestI, bestJ := 0, 1
	bestShared := false
	bestCost := -1.0
	for i := 0; i < len(rels); i++ {
		for j := i + 1; j < len(rels); j++ {
			shared := !rels[i].Scheme().Disjoint(rels[j].Scheme())
			cost := EstimateJoinSize(rels[i].Scheme(), stats[i], rels[j].Scheme(), stats[j])
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
