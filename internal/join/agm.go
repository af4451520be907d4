package join

import (
	"math"

	"relquery/internal/relation"
)

// AGM worst-case size bound for natural joins ("Size bounds and query
// plans for relational joins", Atserias–Grohe–Marx, FOCS 2008): for any
// fractional edge cover (x_i) of the join's attribute hypergraph —
// x_i ≥ 0 with Σ_{i: a ∈ scheme_i} x_i ≥ 1 for every attribute a — the
// join satisfies |R₁ ∗ … ∗ R_k| ≤ ∏ |R_i|^{x_i}, and the minimum over
// fractional covers is tight in the worst case over instances with the
// given sizes. The minimizing cover is a linear program, solved here
// exactly in log space with a small dense two-phase simplex.
//
// The bound is the natural yardstick for the paper's blow-up phenomenon:
// Cosmadakis' gadgets drive intermediate joins toward this worst case
// while input and output stay linear, and EXPLAIN ANALYZE prints the
// bound next to each join node's observed cardinality.

// AGMBound returns the AGM worst-case cardinality bound for the natural
// join of relations with the given schemes and sizes. It returns 0 when
// any input is empty (the join is empty) or the slices are empty or
// mismatched, and 1 when every scheme is empty (the join holds at most
// the empty tuple).
func AGMBound(schemes []relation.Scheme, sizes []int) float64 {
	_, bound := FractionalCover(schemes, sizes)
	return bound
}

// FractionalCover returns a minimizing fractional edge cover x — one
// weight per relation, with Σ_{i: a ∈ scheme_i} x_i ≥ 1 for every
// attribute a — together with the resulting AGM bound ∏ |R_i|^{x_i}. The
// cover is what the worst-case-optimal join's attribute order consults:
// attributes covered by heavily weighted relations are the ones the bound
// charges. Degenerate inputs follow AGMBound: a nil cover with bound 0
// for empty/mismatched slices or any empty relation, an all-zero cover
// with bound 1 when every scheme is empty.
func FractionalCover(schemes []relation.Scheme, sizes []int) ([]float64, float64) {
	if len(schemes) == 0 || len(schemes) != len(sizes) {
		return nil, 0
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, 0
		}
	}
	var attrs []relation.Attribute
	seen := make(map[relation.Attribute]bool)
	for _, sc := range schemes {
		for _, a := range sc.Attrs() {
			if !seen[a] {
				seen[a] = true
				attrs = append(attrs, a)
			}
		}
	}
	if len(attrs) == 0 {
		return make([]float64, len(schemes)), 1
	}
	cover := make([][]bool, len(attrs))
	for r, a := range attrs {
		cover[r] = make([]bool, len(schemes))
		for i, sc := range schemes {
			cover[r][i] = sc.Has(a)
		}
	}
	w := make([]float64, len(sizes))
	for i, s := range sizes {
		w[i] = math.Log2(float64(s))
	}
	opt, x := solveCovering(cover, w)
	return x, math.Exp2(opt)
}

const lpEps = 1e-9

// solveCovering solves the fractional covering LP
//
//	min w·x   subject to   cover·x ≥ 1,  x ≥ 0
//
// where cover is a 0/1 incidence matrix (one row per constraint, one
// column per variable) and w ≥ 0, returning the optimal objective value
// and an optimal x. Every row must have at least one true entry (x = 1 is
// then feasible). The solver is a dense two-phase primal simplex with
// Bland's rule, ample for the tiny instances a join node produces (k
// relations × a few dozen attributes).
func solveCovering(cover [][]bool, w []float64) (float64, []float64) {
	m := len(cover) // constraints
	k := len(w)     // structural variables
	n := k + m + m  // x, surplus, artificial
	// Tableau rows: cover·x − s + t = 1; initial basis = artificials.
	tab := make([][]float64, m)
	basis := make([]int, m)
	for r := 0; r < m; r++ {
		tab[r] = make([]float64, n+1)
		for j := 0; j < k; j++ {
			if cover[r][j] {
				tab[r][j] = 1
			}
		}
		tab[r][k+r] = -1  // surplus
		tab[r][k+m+r] = 1 // artificial
		tab[r][n] = 1     // rhs
		basis[r] = k + m + r
	}

	// Phase 1: drive the artificials to zero.
	phase1 := make([]float64, n)
	for j := k + m; j < n; j++ {
		phase1[j] = 1
	}
	simplexMin(tab, basis, phase1, func(int) bool { return false })

	// Pivot any basic artificial (necessarily at value 0 — the LP is
	// feasible) out of the basis, or drop its row as redundant.
	for r := 0; r < m; r++ {
		if basis[r] < k+m {
			continue
		}
		pivoted := false
		for j := 0; j < k+m; j++ {
			if math.Abs(tab[r][j]) > lpEps {
				pivot(tab, basis, r, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			// Redundant constraint: zero the row so it never pivots.
			for j := range tab[r] {
				tab[r][j] = 0
			}
		}
	}

	// Phase 2: optimize the real objective, artificials barred.
	phase2 := make([]float64, n)
	copy(phase2, w)
	simplexMin(tab, basis, phase2, func(j int) bool { return j >= k+m })

	opt := 0.0
	x := make([]float64, k)
	for r := 0; r < m; r++ {
		opt += phase2[basis[r]] * tab[r][n]
		if basis[r] < k {
			x[basis[r]] = tab[r][n]
		}
	}
	return opt, x
}

// simplexMin runs primal simplex iterations minimizing c over the current
// tableau until no reduced cost is negative. barred columns never enter
// the basis. Bland's rule (lowest eligible index) guarantees termination.
func simplexMin(tab [][]float64, basis []int, c []float64, barred func(int) bool) {
	m := len(tab)
	if m == 0 {
		return
	}
	n := len(tab[0]) - 1
	inBasis := make([]bool, n)
	for _, b := range basis {
		inBasis[b] = true
	}
	for iter := 0; iter < 10_000; iter++ {
		enter := -1
		for j := 0; j < n; j++ {
			if inBasis[j] || barred(j) {
				continue
			}
			rc := c[j]
			for r := 0; r < m; r++ {
				rc -= c[basis[r]] * tab[r][j]
			}
			if rc < -lpEps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return // optimal
		}
		leave := -1
		best := math.Inf(1)
		for r := 0; r < m; r++ {
			if tab[r][enter] > lpEps {
				ratio := tab[r][n] / tab[r][enter]
				if ratio < best-lpEps || (ratio < best+lpEps && (leave < 0 || basis[r] < basis[leave])) {
					best, leave = ratio, r
				}
			}
		}
		if leave < 0 {
			return // unbounded direction; cannot lower a w ≥ 0 covering objective
		}
		inBasis[basis[leave]] = false
		inBasis[enter] = true
		pivot(tab, basis, leave, enter)
	}
}

// pivot makes column enter basic in row leave.
func pivot(tab [][]float64, basis []int, leave, enter int) {
	row := tab[leave]
	p := row[enter]
	for j := range row {
		row[j] /= p
	}
	for r := range tab {
		if r == leave {
			continue
		}
		f := tab[r][enter]
		if f == 0 {
			continue
		}
		for j := range tab[r] {
			tab[r][j] -= f * row[j]
		}
	}
	basis[leave] = enter
}
