package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/deps"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// runE7 measures the Introduction's headline claim: for φ_G over an
// unsatisfiable G, the input R_G and the final result φ_G(R_G) = R_G both
// have 7m + 1 rows, yet any materializing evaluation grows an intermediate
// result that is exponentially larger. The workload is the 8-clause
// unsatisfiable core padded with fresh-variable clauses: every padding
// clause multiplies the space of partial (pre-constraint) combinations by
// 7 without changing input or output.
func runE7(cfg *Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	core8, err := cnf.Unsatisfiable3CNF(rng, 3, 8)
	if err != nil {
		return err
	}
	maxExtra := 4
	if cfg.Quick {
		maxExtra = 2
	}
	const budget = 2_000_000
	fmt.Fprintf(cfg.Out, "workload: 8-clause unsat core + k padding clauses; input = output = 7m+1 rows\n")
	t := newTable(cfg.Out, "m", "input_rows", "output_rows", "max_intermediate(seq)", "max_intermediate(greedy)", "blowup(greedy)", "wcoj_ms")
	// The largest greedy evaluation's trace is kept for cfg.Trace: its span
	// tree pinpoints the join node where the intermediate blow-up happens.
	var lastTrace *obs.Trace
	for extra := 0; extra <= maxExtra; extra++ {
		g, err := cnf.PadWithFreshClauses(core8, extra)
		if err != nil {
			return err
		}
		g, _ = cnf.Compact(g)
		c, err := reduction.New(g)
		if err != nil {
			return err
		}
		phi, err := c.PhiG()
		if err != nil {
			return err
		}

		// Each measurement runs under its own obs.Collector and reads the
		// blow-up from the metrics snapshot; the span tree doubles as the
		// -trace artifact. The experiment's own budget applies unless the
		// configured limits are tighter.
		limits := cfg.Limits
		if limits.MaxIntermediateRows == 0 || budget < limits.MaxIntermediateRows {
			limits.MaxIntermediateRows = budget
		}
		measure := func(order join.Order) (string, int, *obs.Trace) {
			col := &obs.Collector{}
			ev := algebra.Evaluator{Order: order, Collector: col, Limits: limits, Registry: cfg.Registry}
			_, err := ev.Eval(phi, c.Database())
			if err != nil {
				if errors.Is(err, algebra.ErrBudgetExceeded) {
					return fmt.Sprintf(">%d", budget), budget, col.Trace()
				}
				if errors.Is(err, governor.ErrDeadline) {
					return "timeout", 0, col.Trace()
				}
				return "error", 0, col.Trace()
			}
			snap := col.Metrics.Snapshot()
			return fmt.Sprint(snap.MaxIntermediate), int(snap.MaxIntermediate), col.Trace()
		}
		seqStr, _, _ := measure(join.Sequential)
		greedyStr, greedyMax, greedyTrace := measure(join.Greedy)
		lastTrace = greedyTrace

		start := time.Now()
		out, err := evalWCOJ(phi, c.Database())
		if err != nil {
			return err
		}
		wcojDur := time.Since(start)
		blowup := "-"
		if greedyMax > 0 {
			blowup = fmt.Sprintf("%.1fx", float64(greedyMax)/float64(c.R.Len()))
		}
		t.row(c.M(), c.R.Len(), out.Len(), seqStr, greedyStr, blowup, wcojDur.Milliseconds())
	}
	if err := t.flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "expected shape: input and output grow linearly in m; max intermediate grows ~7x per padding clause")
	if cfg.Trace != nil && lastTrace != nil {
		if err := lastTrace.WriteJSON(cfg.Trace); err != nil {
			return err
		}
	}
	return nil
}

// runE8 is the Yannakakis (1981) ablation: an acyclic join evaluated with
// full semijoin reduction never materializes more than O(input · output)
// tuples, while a naive left-deep plan can build a quadratic intermediate
// on the classic "hub" workload: R₁ = {(a_j, hub)}, R₂ = {(hub, b_j)},
// R₃ = one tuple matching none of the b_j. The naive plan materializes
// R₁ ∗ R₂ with N² tuples before the empty R₃ join collapses everything;
// the full reducer semijoins R₂ against R₃ first and never leaves O(N).
func runE8(cfg *Config) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := []int{25, 50, 100, 200}
	if cfg.Quick {
		sizes = []int{25, 50}
	}
	t := newTable(cfg.Out, "N", "input_rows", "|result|", "naive_max_intermediate", "reduced_rows_total", "naive_µs", "yannakakis_µs")
	for _, n := range sizes {
		rels := hubWorkload(n)

		var m obs.Metrics
		start := time.Now()
		naive, err := join.Multi(join.Exec{Metrics: &m}, join.NewPlan(rels...), join.Hash{}, join.Sequential)
		if err != nil {
			return err
		}
		naiveDur := time.Since(start)

		start = time.Now()
		smart, err := deps.AcyclicJoin(rels)
		if err != nil {
			return err
		}
		smartDur := time.Since(start)
		if !naive.Equal(smart) {
			return fmt.Errorf("N=%d: Yannakakis result disagrees with naive join", n)
		}
		reduced, err := deps.FullReduce(rels)
		if err != nil {
			return err
		}
		input, reducedTotal := 0, 0
		for i, r := range reduced {
			input += rels[i].Len()
			reducedTotal += r.Len()
		}
		t.row(n, input, naive.Len(), int(m.Snapshot().MaxIntermediate), reducedTotal,
			naiveDur.Microseconds(), smartDur.Microseconds())
	}
	if err := t.flush(); err != nil {
		return err
	}

	// Join-dependency satisfaction: the paper's co-NP-complete problem,
	// acyclic vs cyclic components.
	fmt.Fprintln(cfg.Out, "\njoin-dependency satisfaction on the paper's gadget: *[F,T1..Tm] holds in R_G ⇔ G unsatisfiable")
	t2 := newTable(cfg.Out, "formula", "m", "JD holds", "expected(unsat)", "agree")
	gSat, gUnsat, err := comboFormulas(rng)
	if err != nil {
		return err
	}
	for _, g := range []*cnf.Formula{gSat, gUnsat} {
		c, err := reduction.New(g)
		if err != nil {
			return err
		}
		jd, err := gadgetJD(c)
		if err != nil {
			return err
		}
		holds, err := jd.HoldsIn(c.R)
		if err != nil {
			return err
		}
		unsat := g == gUnsat
		t2.row(fmt.Sprintf("n=%d", g.NumVars), g.NumClauses(), yesNo(holds), yesNo(unsat), mark(holds == unsat))
	}
	return t2.flush()
}

// gadgetJD builds the join dependency ∗[F, T₁, …, T_m] over R_G's scheme.
func gadgetJD(c *reduction.Construction) (deps.JD, error) {
	comps := []relation.Scheme{c.FScheme()}
	for j := 1; j <= c.M(); j++ {
		tj, err := c.TJScheme(j)
		if err != nil {
			return deps.JD{}, err
		}
		comps = append(comps, tj)
	}
	// The F and T_j components cover every column except none — F covers
	// the F columns, each T_j covers its clause variables, Y{j,·} and S.
	// Every X column is covered because every variable occurs in a clause.
	return deps.JD{Components: comps}, nil
}

// hubWorkload builds the quadratic-intermediate trap: R₁(A B) fans N
// values into a single hub value of B, R₂(B C) fans the hub out to N
// values of C, and R₃(C D) holds one tuple joining with none of them, so
// the final result is empty while R₁ ∗ R₂ has N² tuples.
func hubWorkload(n int) []*relation.Relation {
	r1 := relation.New(relation.MustScheme("A", "B"))
	r2 := relation.New(relation.MustScheme("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	for j := 0; j < n; j++ {
		r1.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", j), "hub"))
		r2.MustAdd(relation.TupleOf("hub", fmt.Sprintf("b%d", j)))
	}
	r3.MustAdd(relation.TupleOf("nomatch", "z"))
	return []*relation.Relation{r1, r2, r3}
}
