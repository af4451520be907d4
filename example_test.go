package relquery_test

import (
	"fmt"

	"relquery"
)

// ExampleEval evaluates a parsed project–join query.
func ExampleEval() {
	r, _ := relquery.FromRows(relquery.MustScheme("A", "B", "C"),
		[]string{"1", "x", "p"},
		[]string{"2", "x", "q"},
	)
	db := relquery.SingleRelation("T", r)
	q, _ := relquery.ParseExprForDatabase("pi[A C](pi[A B](T) * pi[B C](T))", db)
	out, _ := relquery.Eval(q, db)
	fmt.Print(relquery.RenderSorted(out))
	// Output:
	// A  C
	// 1  p
	// 1  q
	// 2  p
	// 2  q
}

// ExampleSATViaMembership decides satisfiability of the paper's worked
// example through the query engine.
func ExampleSATViaMembership() {
	res, _ := relquery.SATViaMembership(relquery.PaperExample())
	fmt.Println(res.Answer)
	// Output:
	// true
}

// ExampleCountModelsViaQuery counts satisfying assignments via Theorem 3's
// identity a(G) = |φ_G(R_G)| − 7m − 1.
func ExampleCountModelsViaQuery() {
	n, _ := relquery.CountModelsViaQuery(relquery.PaperExample())
	fmt.Println(n)
	// Output:
	// 20
}

// ExampleNewConstruction builds the paper's gadget relation.
func ExampleNewConstruction() {
	c, _ := relquery.NewConstruction(relquery.PaperExample())
	fmt.Println(c.R.Len(), "rows over", c.Scheme())
	// Output:
	// 22 rows over F1 F2 F3 X1 X2 X3 X4 X5 Y{1,2} Y{1,3} Y{2,3} S
}

// ExampleResultEquals verifies a conjectured query result — the paper's
// Dᵖ-complete problem.
func ExampleResultEquals() {
	r, _ := relquery.FromRows(relquery.MustScheme("A", "B"),
		[]string{"1", "x"},
	)
	db := relquery.SingleRelation("T", r)
	q, _ := relquery.ParseExprForDatabase("pi[A](T)", db)
	conjecture, _ := relquery.FromRows(relquery.MustScheme("A"), []string{"1"})
	cmp, _ := relquery.ResultEquals(q, db, conjecture, relquery.DecisionBudget{})
	fmt.Println(cmp.Holds)
	// Output:
	// true
}
