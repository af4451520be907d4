package algebra

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"relquery/internal/join"
	"relquery/internal/relation"
)

// FuzzParse checks that the expression parser never panics and that
// anything it accepts round-trips through String and re-parses to a
// structurally equal expression.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"T",
		"pi[A B](T)",
		"pi[A B](T) * pi[B C](T)",
		"pi[A](pi[A B](T) * pi[B C](T))",
		"((T))",
		"pi[Y{1,2} S](T)",
		"pi[](T)",
		"pi[A(T)",
		"T * * T",
		"project[A]((T))",
		"pi * T",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schemes := map[string]relation.Scheme{
		"T":  relation.MustScheme("A", "B", "C", "Y{1,2}", "S"),
		"pi": relation.MustScheme("P"),
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src, schemes)
		if err != nil {
			return
		}
		back, err := Parse(e.String(), schemes)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", src, e.String(), err)
		}
		if !Equal(e, back) {
			t.Fatalf("round trip changed %q -> %q", e.String(), back.String())
		}
	})
}

// FuzzEvalParity holds the evaluator to the Relation.Join/Project fold
// over random project–join expressions on random small databases — joins
// of 2–3 subexpressions, self-joins and repeated operands, projections
// onto any subset of their input's scheme, ∅ included, over empty and
// one-tuple relations — one seed in four with every tuple hashing to 0.
// Every strategy answers under no cache, a cold shared cache and the same
// cache warm, through EvalContext and through EvalTo.
func FuzzEvalParity(f *testing.F) {
	for _, seed := range evalParitySeeds {
		f.Add(seed)
	}
	f.Fuzz(evalParity)
}

// evalParitySeeds is FuzzEvalParity's corpus.
var evalParitySeeds = []int64{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
	// Root join nodes that every strategy but wcoj writes on first sight
	// through the binary plan:
	2707, // a cyclic node of seven inputs: Yannakakis' greedy fallback
	291,  // a two-input hash join on one shared attribute
	181,  // three non-empty inputs, an empty answer
}

func evalParity(t *testing.T, seed int64) {
	if seed&3 == 3 {
		relation.CollideAllHashes(t)
	}
	rng := rand.New(rand.NewSource(seed))
	db := randomDatabase(rng)
	e := randomExpr(rng, db, 3)
	checkEvalParity(t, e, db, join.Order(seed>>2&1))
}

// TestDirtyScratchCannotChangeAnAnswer runs FuzzEvalParity's corpus with
// every slab a join releases filled with 0xFF bytes, so that a join call
// reading a working array it did not write reads garbage: every strategy,
// cold and warm, still writes the fold's answer.
func TestDirtyScratchCannotChangeAnAnswer(t *testing.T) {
	join.DirtyScratch(t)
	for _, seed := range evalParitySeeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { evalParity(t, seed) })
	}
}

// checkEvalParity evaluates e every way the evaluator can and fails
// unless each answer writes the fold's bytes once its columns are in e's
// order — which a projection's answer already has.
func checkEvalParity(t *testing.T, e Expr, db relation.Database, order join.Order) {
	t.Helper()
	folded := fold(t, e, db)
	want := codec(t, folded)
	for _, strategy := range join.StrategyNames() {
		ev := Evaluator{Order: order}
		if err := ev.SetStrategy(strategy); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"no cache", "cold", "warm", "warm again", "warm after reset"} {
			switch mode {
			case "no cache":
				ev.SharedCache = nil
			case "cold":
				ev.SharedCache = NewSubexprCache()
			case "warm after reset":
				ev.SharedCache.Reset()
			}
			for _, api := range []string{"EvalContext", "EvalTo"} {
				got, err := evalVia(&ev, api, e, db, folded.Len())
				if err != nil {
					t.Fatalf("%s under %s, %s, %s: %v", e, strategy, mode, api, err)
				}
				if _, projected := e.(*Project); projected && !got.Scheme().SameOrder(e.Scheme()) {
					t.Fatalf("%s under %s, %s, %s: columns %v, want %v", e, strategy, mode, api, got.Scheme(), e.Scheme())
				}
				if got := codec(t, align(t, got, e.Scheme())); got != want {
					t.Fatalf("%s over %v under %s, %s, %s:\n%s\nthe fold:\n%s", e, db, strategy, mode, api, got, want)
				}
			}
		}
	}
}

// evalVia evaluates e with EvalContext, or with EvalTo into a builder,
// checking that the rows came in ascending order and as many as Begin
// announced — or, when it announced an unknown count (-1), as many as the
// fold's rows.
func evalVia(ev *Evaluator, api string, e Expr, db relation.Database, foldRows int) (*relation.Relation, error) {
	if api == "EvalContext" {
		return ev.EvalContext(context.Background(), e, db)
	}
	var b counted
	if err := ev.EvalTo(context.Background(), e, db, &b); err != nil {
		return nil, err
	}
	r := b.Relation()
	for i := 1; i < r.Len(); i++ {
		if !r.Tuple(i - 1).Less(r.Tuple(i)) {
			return nil, fmt.Errorf("EvalTo wrote %v after %v", r.Tuple(i), r.Tuple(i-1))
		}
	}
	if b.rows < 0 && r.Len() != foldRows {
		return nil, fmt.Errorf("EvalTo announced an unknown count and wrote %d rows; the fold has %d", r.Len(), foldRows)
	}
	if b.rows >= 0 && r.Len() != b.rows {
		return nil, fmt.Errorf("EvalTo announced %d rows and wrote %d", b.rows, r.Len())
	}
	return r, nil
}

// counted is a Builder that notes the row count Begin announced.
type counted struct {
	relation.Builder
	rows int
}

func (c *counted) Begin(scheme relation.Scheme, rows int) bool {
	c.rows = rows
	return c.Builder.Begin(scheme, -1)
}

// fold evaluates e by folding Relation.Join and Relation.Project over its
// tree, with its columns in e's order.
func fold(t *testing.T, e Expr, db relation.Database) *relation.Relation {
	t.Helper()
	var out *relation.Relation
	var err error
	switch x := e.(type) {
	case *Operand:
		out, err = db.Get(x.Name())
	case *Project:
		out, err = fold(t, x.Of(), db).Project(x.Onto())
	case *Join:
		out = fold(t, x.Args()[0], db)
		for _, arg := range x.Args()[1:] {
			if out, err = out.Join(fold(t, arg, db)); err != nil {
				break
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return align(t, out, e.Scheme())
}

// align returns r with its columns in the order of s, set-equal to its
// scheme.
func align(t *testing.T, r *relation.Relation, s relation.Scheme) *relation.Relation {
	t.Helper()
	if r.Scheme().SameOrder(s) {
		return r
	}
	out, err := r.Project(s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// codec is what WriteRelation writes of r.
func codec(t *testing.T, r *relation.Relation) string {
	t.Helper()
	var b strings.Builder
	if err := relation.WriteRelation(&b, "R", r); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

var (
	parityAttrs  = []relation.Attribute{"A", "B", "C", "D"}
	parityDomain = []relation.Value{"0", "1", "2"}
)

// randomDatabase draws 1–3 relations of 1–3 attributes each, holding 0–6
// rows over a 3-value domain.
func randomDatabase(rng *rand.Rand) relation.Database {
	db := relation.NewDatabase()
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		attrs := append([]relation.Attribute(nil), parityAttrs...)
		rng.Shuffle(len(attrs), func(a, b int) { attrs[a], attrs[b] = attrs[b], attrs[a] })
		r := relation.New(relation.MustScheme(attrs[:1+rng.Intn(3)]...))
		for k, rows := 0, rng.Intn(7); k < rows; k++ {
			tp := make(relation.Tuple, r.Scheme().Len())
			for j := range tp {
				tp[j] = parityDomain[rng.Intn(len(parityDomain))]
			}
			r.MustAdd(tp)
		}
		db.Put(fmt.Sprintf("R%d", i), r)
	}
	return db
}

// randomExpr draws a project–join expression over db's relations: joins
// of 2–3 subexpressions (self-joins and repeated operands included) and
// projections onto any subset of their input's scheme, ∅ included.
func randomExpr(rng *rand.Rand, db relation.Database, depth int) Expr {
	names := db.Names()
	if depth == 0 || rng.Intn(4) == 0 {
		name := names[rng.Intn(len(names))]
		r, _ := db.Get(name)
		return MustOperand(name, r.Scheme())
	}
	if rng.Intn(2) == 0 {
		of := randomExpr(rng, db, depth-1)
		var onto []relation.Attribute
		for _, a := range of.Scheme().Attrs() {
			if rng.Intn(2) == 0 {
				onto = append(onto, a)
			}
		}
		return MustProject(relation.MustScheme(onto...), of)
	}
	args := make([]Expr, 2+rng.Intn(2))
	for i := range args {
		args[i] = randomExpr(rng, db, depth-1)
	}
	return MustJoin(args...)
}
