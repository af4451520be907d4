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
// exactly in log space as its dual, a packing LP that is feasible at
// y = 0, by one pass of a small dense simplex from the slack basis.
//
// The bound is the natural yardstick for the paper's blow-up phenomenon:
// Cosmadakis' gadgets drive intermediate joins toward this worst case
// while input and output stay linear, and EXPLAIN ANALYZE prints the
// bound next to each join node's observed cardinality.

// FractionalCover returns a minimizing fractional edge cover x — one
// weight per relation, with Σ_{i: a ∈ scheme_i} x_i ≥ 1 for every
// attribute a — together with the resulting AGM bound ∏ |R_i|^{x_i}.
// Degenerate inputs: a nil cover with bound 0 for empty or mismatched
// slices or any empty relation (the join is empty), an all-zero cover with
// bound 1 when every scheme is empty (the join holds at most the empty
// tuple).
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
	cols    []int // cols[j]: the attribute LP column j stands for
	edges   []int // the LP's rows when the caller passes none
	inBasis []bool
	hasCol  []bool
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

// cover solves the AGM LP of the sub-hypergraph on the given edges (nil:
// all of them) as the packing dual of the fractional edge cover LP
//
//	max Σ_a y_a   subject to   Σ_{a ∈ edge_i} y_a ≤ log₂|R_i| per given edge i,  y ≥ 0
//
// and returns the AGM bound 2^optimum and, when wantCover is set, an
// optimal cover x (one weight per given edge): by LP duality the packing
// optimum is the cover optimum, and x is the final reduced costs of the
// slack columns. Degenerate inputs follow FractionalCover. Every
// right-hand side log₂|R_i| is ≥ 0, so y = 0 — the slack basis — is
// feasible and one primal simplex pass with Bland's rule over one flat
// tableau solves the LP, ample for the tiny instances a join node produces
// (k relations × a few dozen attributes). The tableau has one row per
// given edge, in the given order, and one column per attribute in
// first-occurrence order over the given edges, which fixes the pivoting
// sequence and so the exact floats. Each LP that reaches the solver is
// counted on solves.
func (h *hypergraph) cover(edges []int, wantCover bool, solves *obs.Metrics) ([]float64, float64) {
	if h.tab == nil {
		m, k := h.nattrs, len(h.schemes)
		h.tab = make([]float64, k*(m+k+1)+m+k)
		h.tab, h.cost = h.tab[:k*(m+k+1)], h.tab[k*(m+k+1):]
		h.inBasis = make([]bool, m+k+m)
		h.inBasis, h.hasCol = h.inBasis[:m+k], h.inBasis[m+k:]
		h.basis = make([]int, k+m+k)
		h.basis, h.cols, h.edges = h.basis[:k], h.basis[k:k+m:k+m], h.basis[k+m:]
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
	clear(h.hasCol)
	cols := h.cols[:0]
	for _, i := range edges {
		for _, a := range h.attrs[i] {
			if !h.hasCol[a] {
				h.hasCol[a] = true
				cols = append(cols, a)
			}
		}
	}
	var x []float64
	if wantCover {
		x = make([]float64, len(edges))
	}
	if len(cols) == 0 {
		return x, 1
	}

	solves.CoverLPSolved(1)
	m := len(cols)  // y
	k := len(edges) // constraints, one slack each
	n := m + k      // y, slack
	stride := n + 1 // … and the right-hand side
	// Tableau rows: packing·y + s = log₂|R_i|; initial basis = slacks.
	tab, basis, cost := h.tab[:k*stride], h.basis[:k], h.cost[:n]
	clear(tab)
	for r, i := range edges {
		row := tab[r*stride : (r+1)*stride]
		for j, a := range cols {
			if h.has(h.bits, i, a) {
				row[j] = 1
			}
		}
		row[m+r] = 1 // slack
		row[n] = math.Log2(float64(h.sizes[i]))
		basis[r] = m + r
	}
	clear(cost)
	for j := range cols {
		cost[j] = -1 // max Σ y is min −Σ y
	}
	h.simplexMin(tab, basis, cost)

	opt := 0.0
	for r, b := range basis {
		if b >= m {
			continue // a basic slack costs nothing
		}
		opt += tab[r*stride+n]
		// x_i is slack i's reduced cost, 0 − Σ_r cost[basis[r]]·tab[r][m+i].
		for i := range x {
			x[i] += tab[r*stride+m+i]
		}
	}
	return x, math.Exp2(opt)
}

// simplexMin runs primal simplex iterations minimizing c over the current
// tableau, whose basis must be feasible, until no reduced cost is
// negative. Bland's rule (lowest eligible index) guarantees termination.
func (h *hypergraph) simplexMin(tab []float64, basis []int, c []float64) {
	m, n := len(basis), len(c)
	stride := n + 1
	inBasis := h.inBasis[:n]
	clear(inBasis)
	for _, b := range basis {
		inBasis[b] = true
	}
	for iter := 0; iter < 10_000; iter++ {
		enter := -1
		for j := 0; j < n; j++ {
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
			return // unbounded; cannot happen: every y_a sits in some edge's row
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
