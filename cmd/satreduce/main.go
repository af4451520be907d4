// Command satreduce builds the paper's gadget from a CNF formula and can
// decide satisfiability problems through the query engine, cross-checked
// against the direct DPLL solver.
//
// Usage:
//
//	satreduce -cnf formula.cnf -emit                 # print R_G and φ_G
//	satreduce -formula '(x1+x2+x3)(~x1+x2+~x3)(x1+~x2+x3)' -decide sat
//	satreduce -cnf formula.cnf -decide count -check
//
// The -cnf file may be DIMACS ("p cnf ...") or the human-readable clause
// syntax. Formulas are normalized into the paper's reduction form (3CNF,
// ≥ 3 clauses, every variable used) before the gadget is built.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"relquery/internal/cnf"
	"relquery/internal/core"
	"relquery/internal/governor"
	"relquery/internal/qbf"
	"relquery/internal/reduction"
	"relquery/internal/relation"
	"relquery/internal/sat"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "satreduce:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("satreduce", flag.ContinueOnError)
	var (
		cnfPath = fs.String("cnf", "", "path to a CNF file (DIMACS or clause syntax)")
		formula = fs.String("formula", "", "inline formula, e.g. '(x1 + ~x2 + x3)(...)'")
		emit    = fs.Bool("emit", false, "print the gadget relation R_G and expression φ_G")
		decide  = fs.String("decide", "", "decide through the query engine: sat, unsat or count")
		check   = fs.Bool("check", false, "cross-check the query answer against the direct solver")
		forall  = fs.String("forall", "", "comma-separated universal variables: decide the Q-3SAT sentence ∀X ∃rest G via Theorem 4")
		timeout = fs.String("timeout", "", "wall-clock deadline for the decision searches (duration like 250ms, 2s, or seconds; empty or 0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := governor.ParseTimeout(*timeout)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	g, err := loadFormula(*cnfPath, *formula)
	if err != nil {
		return err
	}
	normalized, err := cnf.Normalize(g)
	if err != nil {
		return err
	}
	if !*emit && *decide == "" && *forall == "" {
		return fmt.Errorf("nothing to do: pass -emit, -decide and/or -forall")
	}

	if *forall != "" {
		universal, err := parseVars(*forall)
		if err != nil {
			return err
		}
		inst := &qbf.Instance{G: normalized, Universal: universal}
		res, err := core.Q3SATViaQueryComparisonContext(ctx, inst)
		if err != nil {
			return err
		}
		fmt.Printf("forall-exists(query route): %v   [%s]\n", res.Answer, res.Route)
		if *check {
			if err := crossCheck(ctx, "forall", inst, res.Answer); err != nil {
				return err
			}
		}
	}

	if *emit {
		c, err := reduction.New(normalized)
		if err != nil {
			return err
		}
		fmt.Printf("# G = %v\n# m = %d clauses, n = %d variables, |R_G| = %d\n",
			normalized, c.M(), c.N(), c.R.Len())
		if err := relation.WriteRelation(os.Stdout, c.OperandName(), c.R); err != nil {
			return err
		}
		phi, err := c.PhiG()
		if err != nil {
			return err
		}
		fmt.Printf("# φ_G:\n%s\n", phi)
	}

	var answer any
	switch *decide {
	case "":
		return nil
	case "sat":
		res, err := core.SATViaMembershipContext(ctx, normalized)
		if err != nil {
			return err
		}
		fmt.Printf("satisfiable(query route): %v   [%s]\n", res.Answer, res.Route)
		answer = res.Answer
	case "unsat":
		res, err := core.UNSATViaFixpointContext(ctx, normalized)
		if err != nil {
			return err
		}
		fmt.Printf("unsatisfiable(query route): %v   [%s]\n", res.Answer, res.Route)
		answer = res.Answer
	case "count":
		n, err := core.CountModelsViaQueryContext(ctx, normalized)
		if err != nil {
			return err
		}
		fmt.Printf("models(query route): %d   [a(G) = |φ_G(R_G)| − 7m − 1]\n", n)
		answer = n
	default:
		return fmt.Errorf("unknown -decide %q (want sat, unsat or count)", *decide)
	}
	if !*check {
		return nil
	}
	return crossCheck(ctx, *decide, &qbf.Instance{G: normalized}, answer)
}

// crossCheck decides mode — sat, unsat, count or forall — by the direct
// logic-side search and reports whether it agrees with the query route's
// answer. All four searches run under one governor for ctx: DPLL for sat
// and unsat, the component counter for count, and the ∀-loop over DPLL
// for forall.
func crossCheck(ctx context.Context, mode string, inst *qbf.Instance, answer any) error {
	gov := governor.New(ctx, governor.Limits{})
	dpll := sat.DPLL{Gov: gov}
	switch mode {
	case "forall":
		direct, err := qbf.SolveWith(inst, dpll)
		if err != nil {
			return err
		}
		return report(answer == direct.Holds, fmt.Sprintf("qbf solver says %v", direct.Holds))
	case "count":
		direct, err := sat.ComponentCounter{Gov: gov}.Count(inst.G)
		if err != nil {
			return err
		}
		return report(answer == direct, fmt.Sprintf("component counter says %d", direct))
	}
	direct, _, err := dpll.Solve(inst.G)
	if err != nil {
		return err
	}
	if mode == "unsat" {
		return report(answer == !direct, fmt.Sprintf("dpll says satisfiable=%v", direct))
	}
	return report(answer == direct, fmt.Sprintf("dpll says %v", direct))
}

func loadFormula(path, inline string) (*cnf.Formula, error) {
	if (path == "") == (inline == "") {
		return nil, fmt.Errorf("exactly one of -cnf or -formula is required")
	}
	if inline != "" {
		return cnf.Parse(inline)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	text := strings.TrimSpace(string(data))
	if strings.HasPrefix(text, "p ") || strings.HasPrefix(text, "c ") || strings.HasPrefix(text, "c\n") {
		return cnf.ParseDIMACS(strings.NewReader(text))
	}
	return cnf.Parse(text)
}

func report(agree bool, detail string) error {
	if agree {
		fmt.Printf("cross-check: agree (%s)\n", detail)
		return nil
	}
	return fmt.Errorf("cross-check FAILED: %s", detail)
}

// parseVars parses "1,3,5" into variable indices.
func parseVars(spec string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "x"))
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad variable %q in -forall", part)
		}
		out = append(out, v)
	}
	return out, nil
}
