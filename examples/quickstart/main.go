// Quickstart: build relations, project and join them, parse and evaluate
// a textual query, and peek at the tableau machinery.
package main

import (
	"fmt"
	"log"

	"relquery"
)

func main() {
	// A relation is a set of tuples over a scheme. Schemes are ordered for
	// printing but behave as sets: joins and comparisons ignore column
	// order.
	supplies, err := relquery.FromRows(
		relquery.MustScheme("Supplier", "Part"),
		[]string{"acme", "bolt"},
		[]string{"acme", "nut"},
		[]string{"bert", "bolt"},
	)
	if err != nil {
		log.Fatal(err)
	}
	uses, err := relquery.FromRows(
		relquery.MustScheme("Part", "Machine"),
		[]string{"bolt", "press"},
		[]string{"nut", "press"},
		[]string{"bolt", "lathe"},
	)
	if err != nil {
		log.Fatal(err)
	}

	// Natural join on the shared attribute Part.
	joined, err := supplies.Join(uses)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("supplies * uses:")
	fmt.Print(relquery.RenderSorted(joined))

	// Projection (with set semantics: duplicates collapse).
	who, err := joined.Project(relquery.MustScheme("Supplier", "Machine"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npi[Supplier Machine](supplies * uses):")
	fmt.Print(relquery.RenderSorted(who))

	// The same query in the text syntax, evaluated against a database.
	db := relquery.NewDatabase()
	db.Put("Supplies", supplies)
	db.Put("Uses", uses)
	expr, err := relquery.ParseExprForDatabase("pi[Supplier Machine](Supplies * Uses)", db)
	if err != nil {
		log.Fatal(err)
	}
	result, err := relquery.Eval(expr, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nparsed %q -> %d tuples (equal: %v)\n", expr, result.Len(), result.Equal(who))

	// Membership (Proposition 2 of the paper): is a tuple in the result,
	// decided by a search for one witness, without materializing the query?
	nt, err := relquery.NewScheme("Supplier", "Machine")
	if err != nil {
		log.Fatal(err)
	}
	candidate := relquery.NamedTuple{Scheme: nt, Vals: relquery.TupleOf("bert", "lathe")}
	in, err := relquery.Member(candidate, expr, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("member (bert, lathe): %v\n", in)
}
