package sat

import (
	"fmt"

	"relquery/internal/cnf"
	"relquery/internal/governor"
)

// Counter computes the exact number of satisfying assignments of a
// formula, over all 2^NumVars assignments (variables that do not occur in
// any clause contribute a factor of 2 each). This is the paper's
// enumeration problem #3SAT (Theorem 3).
type Counter interface {
	// Name identifies the counter in experiment tables.
	Name() string
	// Count returns the number of models of f.
	Count(f *cnf.Formula) (int64, error)
}

// BruteCounter counts by enumerating all 2^n assignments.
type BruteCounter struct {
	// Gov is ticked once per assignment tried; nil is ungoverned.
	Gov *governor.Governor
}

// Name implements Counter.
func (BruteCounter) Name() string { return "brute" }

// Count implements Counter.
func (b BruteCounter) Count(f *cnf.Formula) (int64, error) {
	if f.NumVars > MaxBruteVars {
		return 0, fmt.Errorf("sat: brute counting limited to %d variables, formula has %d", MaxBruteVars, f.NumVars)
	}
	a := cnf.NewAssignment(f.NumVars)
	var count int64
	total := uint64(1) << uint(f.NumVars)
	for mask := uint64(0); mask < total; mask++ {
		if err := b.Gov.Tick(); err != nil {
			return 0, err
		}
		a.FromBits(mask)
		if f.Eval(a) {
			count++
		}
	}
	return count, nil
}

// ComponentCounter counts with DPLL-style branching, unit propagation and
// connected-component decomposition (independent sub-formulas multiply).
// Pure-literal elimination is deliberately absent: it preserves
// satisfiability but not model counts.
type ComponentCounter struct {
	// Gov is ticked once per search node; nil is ungoverned.
	Gov *governor.Governor
}

// Name implements Counter.
func (ComponentCounter) Name() string { return "component" }

// Count implements Counter.
func (cc ComponentCounter) Count(f *cnf.Formula) (int64, error) {
	if f.NumVars > MaxBruteVars {
		return 0, fmt.Errorf("sat: counting limited to %d variables, formula has %d (results are int64)", MaxBruteVars, f.NumVars)
	}
	owned := make([]int, f.NumVars)
	for i := range owned {
		owned[i] = i + 1
	}
	clauses := make([]cnf.Clause, len(f.Clauses))
	copy(clauses, f.Clauses)
	r := countRun{gov: cc.Gov}
	n := r.count(clauses, owned)
	if r.err != nil {
		return 0, r.err
	}
	return n, nil
}

// CountModels counts models of f with the default counter.
func CountModels(f *cnf.Formula) (int64, error) {
	return ComponentCounter{}.Count(f)
}

// countRun is one ComponentCounter run: gov is ticked once per search
// node, and err latches the violation that stopped the search (the
// recursion unwinds through its counts, so the error travels out of band).
type countRun struct {
	gov *governor.Governor
	err error
}

// count counts assignments to the owned variables satisfying clauses,
// which mention only owned variables. Once err is set it returns 0.
func (r *countRun) count(clauses []cnf.Clause, owned []int) int64 {
	if r.err != nil {
		return 0
	}
	if err := r.gov.Tick(); err != nil {
		r.err = err
		return 0
	}
	// Simplify by unit propagation.
	for {
		unit := cnf.Lit(0)
		for _, c := range clauses {
			if len(c) == 0 {
				return 0
			}
			if len(c) == 1 {
				unit = c[0]
				break
			}
		}
		if unit == 0 {
			break
		}
		clauses = substitute(clauses, unit)
		owned = remove(owned, unit.Var())
		// A falsified clause shows up as an empty clause next round.
	}
	if len(clauses) == 0 {
		return pow2(len(owned))
	}

	// Decompose into connected components over shared variables.
	comps := components(clauses)
	if len(comps) > 1 {
		inClauses := make(map[int]bool)
		total := int64(1)
		for _, comp := range comps {
			vars := varsOf(comp)
			for _, v := range vars {
				inClauses[v] = true
			}
			total *= r.count(comp, vars)
			if total == 0 {
				return 0
			}
		}
		floating := 0
		for _, v := range owned {
			if !inClauses[v] {
				floating++
			}
		}
		return total * pow2(floating)
	}

	// Branch on the most frequent variable.
	freq := make(map[int]int)
	for _, c := range clauses {
		for _, l := range c {
			freq[l.Var()]++
		}
	}
	best, bestCount := 0, -1
	for _, v := range owned {
		if freq[v] > bestCount {
			best, bestCount = v, freq[v]
		}
	}
	rest := remove(owned, best)
	return r.count(substitute(clauses, cnf.Lit(best)), rest) +
		r.count(substitute(clauses, cnf.Lit(-best)), rest)
}

// substitute applies literal l := true: satisfied clauses vanish, the
// complementary literal is removed from the rest. A clause reduced to zero
// literals remains as an (unsatisfiable) empty clause.
func substitute(clauses []cnf.Clause, l cnf.Lit) []cnf.Clause {
	out := make([]cnf.Clause, 0, len(clauses))
	for _, c := range clauses {
		sat := false
		for _, x := range c {
			if x == l {
				sat = true
				break
			}
		}
		if sat {
			continue
		}
		reduced := make(cnf.Clause, 0, len(c))
		for _, x := range c {
			if x != l.Neg() {
				reduced = append(reduced, x)
			}
		}
		out = append(out, reduced)
	}
	return out
}

// components partitions clauses into connected components linked by shared
// variables (union-find over variables).
func components(clauses []cnf.Clause) [][]cnf.Clause {
	parent := make(map[int]int)
	var find func(int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	for _, c := range clauses {
		for i := 1; i < len(c); i++ {
			union(c[0].Var(), c[i].Var())
		}
	}
	groups := make(map[int][]cnf.Clause)
	var order []int
	for _, c := range clauses {
		root := find(c[0].Var())
		if _, ok := groups[root]; !ok {
			order = append(order, root)
		}
		groups[root] = append(groups[root], c)
	}
	out := make([][]cnf.Clause, 0, len(order))
	for _, root := range order {
		out = append(out, groups[root])
	}
	return out
}

// varsOf returns the distinct variables mentioned by the clauses, in first
// occurrence order.
func varsOf(clauses []cnf.Clause) []int {
	seen := make(map[int]bool)
	var out []int
	for _, c := range clauses {
		for _, l := range c {
			if !seen[l.Var()] {
				seen[l.Var()] = true
				out = append(out, l.Var())
			}
		}
	}
	return out
}

func remove(vars []int, v int) []int {
	out := make([]int, 0, len(vars))
	for _, x := range vars {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func pow2(n int) int64 {
	return int64(1) << uint(n)
}
