package join

import (
	"relquery/internal/relation"
)

// Cardinality estimation in the classic System R style: the estimated size
// of a natural join is the product of the input sizes divided, for each
// shared attribute, by the larger of the two distinct-value counts —
// assuming uniformity and inclusion, the textbook selectivity model.

// Analyze counts the distinct values of each column of r into distinct
// (one entry per column, in scheme order): one scan of r per column,
// through the one set, emptied before each.
func Analyze(r *relation.Relation, set map[relation.Value]struct{}, distinct []float64) {
	for c := range distinct {
		clear(set)
		for i := 0; i < r.Len(); i++ {
			set[r.Tuple(i)[c]] = struct{}{}
		}
		distinct[c] = float64(len(set))
	}
}

// simulateGreedy runs the greedy binary planner over statistics instead
// of relations — pickPair's rule, scored by estimated join sizes instead
// of products of actual sizes — and returns both the System R estimated
// peak and the worst-case (AGM) peak over intermediate accumulators.
// Analyze scans every row of every input: Plan.Peaks is the only caller.
//
// An accumulator lives in the slot of its leftmost base input: its
// attributes (left operand's first, then the right's new ones — the order
// the estimate divides in), their bitset, a dense distinct count per
// attribute number, and the chain of base inputs merged into it. A merge
// rewrites the left slot in place, so nothing is allocated per candidate
// pair or per merge, and every estimate's float operations happen in the
// order they always have: the estimated peak is bit-identical to the
// Scheme-and-map version's.
func (p *Plan) simulateGreedy() (estPeak, worstPeak float64) {
	n := len(p.Inputs)
	if n < 2 {
		return 0, 0
	}
	h := p.hypergraph()
	width, words := h.nattrs, h.words
	ints := make([]int, n*width+5*n)
	attrs, ints := ints[:n*width], ints[n*width:] // slot s: attrs[s*width:][:count[s]]
	count, last, next, pending, base := ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:4*n], ints[4*n:]
	floats := make([]float64, n*width+n+width)
	distinct, rows, column := floats[:n*width], floats[n*width:n*width+n], floats[n*width+n:]
	bits := append([]uint64(nil), h.bits...)
	set := make(map[relation.Value]struct{})
	for s, r := range p.Inputs {
		count[s] = copy(attrs[s*width:], h.attrs[s])
		last[s], next[s], pending[s] = s, -1, s
		rows[s] = float64(r.Len())
		Analyze(r, set, column[:count[s]])
		for c, a := range h.attrs[s] {
			distinct[s*width+a] = column[c]
		}
	}
	estimate := func(l, r int) float64 {
		est := rows[l] * rows[r]
		for _, a := range attrs[l*width:][:count[l]] {
			if h.has(bits, r, a) {
				if v := max(distinct[l*width+a], distinct[r*width+a]); v > 1 {
					est /= v
				}
			}
		}
		return est
	}
	for len(pending) > 1 {
		bestI, bestJ := pickPair(len(pending), func(i, j int) (bool, float64) {
			l, r := pending[i], pending[j]
			shared := false
			for w := 0; w < words && !shared; w++ {
				shared = bits[l*words+w]&bits[r*words+w] != 0
			}
			return shared, estimate(l, r)
		})
		l, r := pending[bestI], pending[bestJ]
		est := estimate(l, r)
		if est > estPeak {
			estPeak = est
		}
		for _, a := range attrs[r*width:][:count[r]] {
			v := distinct[r*width+a]
			if h.has(bits, l, a) {
				v = min(distinct[l*width+a], v)
			} else {
				attrs[l*width+count[l]] = a
				count[l]++
			}
			distinct[l*width+a] = v
		}
		for w := 0; w < words; w++ {
			bits[l*words+w] |= bits[r*words+w]
		}
		for _, a := range attrs[l*width:][:count[l]] {
			distinct[l*width+a] = min(distinct[l*width+a], max(est, 1))
		}
		rows[l] = est
		next[last[l]] = r // r's chain of base inputs follows l's
		last[l] = last[r]
		if len(pending) > 2 { // intermediate, not the final full-set result
			// The AGM bound of the base relations the accumulator holds.
			merged := base[:0]
			for i := l; i >= 0; i = next[i] {
				merged = append(merged, i)
			}
			if _, wc := h.cover(merged, false, p.Metrics); wc > worstPeak {
				worstPeak = wc
			}
		}
		pending = append(pending[:bestJ], pending[bestJ+1:]...)
	}
	return estPeak, worstPeak
}
