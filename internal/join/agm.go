package join

import (
	"math"

	"relquery/internal/obs"
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
	if len(schemes) != len(sizes) {
		return nil, 0
	}
	return newHypergraph(schemes, sizes).cover(nil, true, nil)
}

// hypergraph is a join node's hypergraph in plan-local index form:
// attributes numbered densely in first-occurrence order, each edge (input
// scheme) held as its attribute numbers in scheme order plus a bitset for
// membership. The planners' loops — one LP per greedy accumulator, one
// estimate per candidate pair — run over these and build no Scheme, map or
// matrix of their own.
type hypergraph struct {
	schemes []relation.Scheme
	sizes   []int
	attrs   [][]int  // attrs[i]: edge i's attribute numbers, in scheme order
	nattrs  int      // distinct attributes over all edges
	words   int      // uint64 words per bitset
	bits    []uint64 // edge i's attribute set is bits[i*words:(i+1)*words]

	// Scratch of the cover LPs, sized on first use for the n-ary LP — the
	// largest this hypergraph can pose — and reused by every subset LP.
	tab     []float64 // tableau, row-major
	cost    []float64
	basis   []int
	rows    []int // rows[r]: the attribute constraint r covers
	edges   []int // the LP's columns when the caller passes none
	inBasis []bool
	hasRow  []bool
}

func newHypergraph(schemes []relation.Scheme, sizes []int) *hypergraph {
	total := 0
	for _, sc := range schemes {
		total += sc.Len()
	}
	h := &hypergraph{schemes: schemes, sizes: sizes, attrs: make([][]int, len(schemes))}
	number := make(map[relation.Attribute]int, total)
	flat := make([]int, 0, total)
	for i, sc := range schemes {
		from := len(flat)
		for c := 0; c < sc.Len(); c++ {
			a, ok := number[sc.Attr(c)]
			if !ok {
				a = len(number)
				number[sc.Attr(c)] = a
			}
			flat = append(flat, a)
		}
		h.attrs[i] = flat[from:len(flat):len(flat)]
	}
	h.nattrs = len(number)
	h.words = (h.nattrs + 63) / 64
	h.bits = make([]uint64, len(schemes)*h.words)
	for i, edge := range h.attrs {
		for _, a := range edge {
			h.bits[i*h.words+a/64] |= 1 << (a % 64)
		}
	}
	return h
}

// has reports whether attribute a belongs to the set stored at slot i of
// bits (h.bits, or a caller's array of the same layout).
func (h *hypergraph) has(bits []uint64, i, a int) bool {
	return bits[i*h.words+a/64]&(1<<(a%64)) != 0
}

const lpEps = 1e-9

// cover solves the fractional edge cover LP of the sub-hypergraph on the
// given edges (nil: all of them)
//
//	min Σ log₂|R_i|·x_i   subject to   Σ_{i: a ∈ edge_i} x_i ≥ 1 per attribute a,  x ≥ 0
//
// and returns the AGM bound 2^optimum and, when wantCover is set, an
// optimal x (one weight per given edge). Degenerate inputs follow
// FractionalCover. The solver is a dense two-phase primal simplex with
// Bland's rule over one flat tableau, ample for the tiny instances a join
// node produces (k relations × a few dozen attributes); constraints are
// taken in first-occurrence order of their attributes over the given
// edges, which fixes the pivoting sequence and so the exact floats. Each
// LP that reaches the solver is counted on solves.
func (h *hypergraph) cover(edges []int, wantCover bool, solves *obs.Metrics) ([]float64, float64) {
	if h.tab == nil {
		m, k := h.nattrs, len(h.schemes)
		h.tab = make([]float64, m*(k+2*m+1))
		h.cost = make([]float64, k+2*m)
		h.inBasis = make([]bool, k+2*m+m)
		h.inBasis, h.hasRow = h.inBasis[:k+2*m], h.inBasis[k+2*m:]
		h.basis = make([]int, 2*m+k)
		h.basis, h.rows, h.edges = h.basis[:m], h.basis[m:2*m:2*m], h.basis[2*m:]
		for i := range h.edges {
			h.edges[i] = i
		}
	}
	if edges == nil {
		edges = h.edges
	}
	if len(edges) == 0 {
		return nil, 0
	}
	for _, i := range edges {
		if h.sizes[i] <= 0 {
			return nil, 0
		}
	}
	clear(h.hasRow)
	rows := h.rows[:0]
	for _, i := range edges {
		for _, a := range h.attrs[i] {
			if !h.hasRow[a] {
				h.hasRow[a] = true
				rows = append(rows, a)
			}
		}
	}
	var x []float64
	if wantCover {
		x = make([]float64, len(edges))
	}
	if len(rows) == 0 {
		return x, 1
	}

	solves.CoverLPSolved(1)
	m := len(rows)  // constraints
	k := len(edges) // structural variables
	n := k + m + m  // x, surplus, artificial
	stride := n + 1 // … and the right-hand side
	// Tableau rows: cover·x − s + t = 1; initial basis = artificials.
	tab, basis, cost := h.tab[:m*stride], h.basis[:m], h.cost[:n]
	clear(tab)
	for r, a := range rows {
		row := tab[r*stride : (r+1)*stride]
		for j, i := range edges {
			if h.has(h.bits, i, a) {
				row[j] = 1
			}
		}
		row[k+r] = -1  // surplus
		row[k+m+r] = 1 // artificial
		row[n] = 1     // rhs
		basis[r] = k + m + r
	}

	// Phase 1: drive the artificials to zero.
	clear(cost)
	for j := k + m; j < n; j++ {
		cost[j] = 1
	}
	h.simplexMin(tab, basis, cost, n)

	// Pivot any basic artificial (necessarily at value 0 — the LP is
	// feasible: x = 1 covers every attribute) out of the basis, or drop its
	// row as redundant.
	for r := 0; r < m; r++ {
		if basis[r] < k+m {
			continue
		}
		row := tab[r*stride : (r+1)*stride]
		pivoted := false
		for j := 0; j < k+m; j++ {
			if math.Abs(row[j]) > lpEps {
				pivot(tab, stride, basis, r, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			clear(row) // redundant constraint: never pivots again
		}
	}

	// Phase 2: optimize the real objective, artificials barred.
	clear(cost)
	for j, i := range edges {
		cost[j] = math.Log2(float64(h.sizes[i]))
	}
	h.simplexMin(tab, basis, cost, k+m)

	opt := 0.0
	for r := 0; r < m; r++ {
		value := tab[r*stride+n]
		opt += cost[basis[r]] * value
		if wantCover && basis[r] < k {
			x[basis[r]] = value
		}
	}
	return x, math.Exp2(opt)
}

// simplexMin runs primal simplex iterations minimizing c over the current
// tableau until no reduced cost is negative. Only columns below enterable
// may enter the basis. Bland's rule (lowest eligible index) guarantees
// termination.
func (h *hypergraph) simplexMin(tab []float64, basis []int, c []float64, enterable int) {
	m, n := len(basis), len(c)
	stride := n + 1
	inBasis := h.inBasis[:n]
	clear(inBasis)
	for _, b := range basis {
		inBasis[b] = true
	}
	for iter := 0; iter < 10_000; iter++ {
		enter := -1
		for j := 0; j < enterable; j++ {
			if inBasis[j] {
				continue
			}
			rc := c[j]
			for r := 0; r < m; r++ {
				rc -= c[basis[r]] * tab[r*stride+j]
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
			if tab[r*stride+enter] > lpEps {
				ratio := tab[r*stride+n] / tab[r*stride+enter]
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
		pivot(tab, stride, basis, leave, enter)
	}
}

// pivot makes column enter basic in row leave.
func pivot(tab []float64, stride int, basis []int, leave, enter int) {
	row := tab[leave*stride:][:stride]
	p := row[enter]
	for j := range row {
		row[j] /= p
	}
	for r := range basis {
		if r == leave {
			continue
		}
		other := tab[r*stride:][:stride]
		f := other[enter]
		if f == 0 {
			continue
		}
		for j := range other {
			other[j] -= f * row[j]
		}
	}
	basis[leave] = enter
}
