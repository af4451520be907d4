package decide

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// FuzzDecideParity holds every decider to the Relation.Join/Project fold
// over random project–join expressions on random small databases, one
// seed in four with every tuple hashing to 0.
func FuzzDecideParity(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	// Seeds 18 and 22 draw a π_∅ target; 18 a row with no relevant
	// variable over a non-empty operand, 19 and 22 one over an empty
	// operand; 19 a self-join; 79 a join on a variable that nothing else
	// reads, which fails when the tableau projects it away. 65, 177, 277
	// and 334 draw targets whose columns are not the atoms' left-to-right
	// order: the stream binds them late, and two valuations can share a
	// tuple.
	for _, seed := range []int64{18, 19, 22, 79, 65, 177, 277, 334} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if seed&3 == 3 {
			relation.CollideAllHashes(t)
		}
		rng := rand.New(rand.NewSource(seed))
		db := randomDatabase(rng)
		phi := randomExpr(rng, db, 3)
		checkDecideParity(t, rng, phi, db)
	})
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
func randomExpr(rng *rand.Rand, db relation.Database, depth int) algebra.Expr {
	names := db.Names()
	if depth == 0 || rng.Intn(4) == 0 {
		name := names[rng.Intn(len(names))]
		r, _ := db.Get(name)
		return algebra.MustOperand(name, r.Scheme())
	}
	if rng.Intn(2) == 0 {
		of := randomExpr(rng, db, depth-1)
		var onto []relation.Attribute
		for _, a := range of.Scheme().Attrs() {
			if rng.Intn(2) == 0 {
				onto = append(onto, a)
			}
		}
		return algebra.MustProject(relation.MustScheme(onto...), of)
	}
	args := make([]algebra.Expr, 2+rng.Intn(2))
	for i := range args {
		args[i] = randomExpr(rng, db, depth-1)
	}
	return algebra.MustJoin(args...)
}

// oracle evaluates e by folding Relation.Join and Relation.Project over
// its tree.
func oracle(t *testing.T, e algebra.Expr, db relation.Database) *relation.Relation {
	t.Helper()
	var out *relation.Relation
	var err error
	switch x := e.(type) {
	case *algebra.Operand:
		out, err = db.Get(x.Name())
	case *algebra.Project:
		out, err = oracle(t, x.Of(), db).Project(x.Onto())
	case *algebra.Join:
		out = oracle(t, x.Args()[0], db)
		for _, arg := range x.Args()[1:] {
			if out, err = out.Join(oracle(t, arg, db)); err != nil {
				break
			}
		}
	default:
		t.Fatalf("unexpected expression %T", e)
	}
	if err != nil {
		t.Fatal(err)
	}
	// The fold's columns follow the expression's target scheme.
	if out, err = out.Project(e.Scheme()); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkDecideParity(t *testing.T, rng *rand.Rand, phi algebra.Expr, db relation.Database) {
	truth := oracle(t, phi, db)
	n := truth.Len()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s over %v (|φ(R)| = %d): %s", phi, db, n, fmt.Sprintf(format, args...))
	}
	b := Budget{}
	// Enumerate keeps no set: the stream must yield each tuple once.
	yielded := relation.New(phi.Scheme())
	if err := Enumerate(phi, db, b, func(tp relation.Tuple) bool {
		if !truth.Contains(tp) {
			fail("Enumerate yielded %v, which is not in φ(R)", tp)
		}
		if fresh, _ := yielded.Add(tp); !fresh {
			fail("Enumerate yielded %v twice", tp)
		}
		return true
	}); err != nil || yielded.Len() != n {
		fail("Enumerate yielded %d tuples, %v", yielded.Len(), err)
	}
	if got, err := Count(phi, db, b); err != nil || got != n {
		fail("Count = %d, %v", got, err)
	}
	for d := n - 1; d <= n+1; d++ {
		if got, err := CardAtLeast(phi, db, d, b); err != nil || got != (d <= n) {
			fail("CardAtLeast(%d) = %v, %v", d, got, err)
		}
		if d >= 0 {
			if got, err := CardAtMost(phi, db, d, b); err != nil || got != (n <= d) {
				fail("CardAtMost(%d) = %v, %v", d, got, err)
			}
		}
		for d2 := max(d, 0); d2 <= n+1; d2++ {
			if got, err := CardBetween(phi, db, d, d2, b); err != nil || got != (d <= n && n <= d2) {
				fail("CardBetween(%d, %d) = %v, %v", d, d2, got, err)
			}
		}
	}

	s := phi.Scheme()
	truth.Each(func(tp relation.Tuple) bool {
		if ok, err := Member(relation.NamedTuple{Scheme: s, Vals: tp}, phi, db); err != nil || !ok {
			fail("Member(%v) = %v, %v", tp, ok, err)
		}
		return true
	})
	if outside := tupleOutside(truth); outside != nil {
		if ok, err := Member(relation.NamedTuple{Scheme: s, Vals: outside}, phi, db); err != nil || ok {
			fail("Member(%v) = %v, %v for a tuple outside φ(R)", outside, ok, err)
		}
	}

	if cmp, err := ResultEquals(phi, db, truth, b); err != nil || !cmp.Holds {
		fail("ResultEquals(oracle) = %+v, %v", cmp, err)
	}
	if n > 0 {
		missing := truth.Tuple(rng.Intn(n)).Clone()
		short := relation.New(s)
		truth.Each(func(tp relation.Tuple) bool {
			if !tp.Equal(missing) {
				short.MustAdd(tp)
			}
			return true
		})
		cmp, err := ResultSubset(phi, db, short, b)
		if err != nil || cmp.Holds || !cmp.Witness.Equal(missing) || !cmp.WitnessScheme.SameOrder(s) {
			fail("ResultSubset(oracle − %v) = %+v, %v", missing, cmp, err)
		}
	}
	if cmp, err := ContainedFixedRelation(phi, phi, db, b); err != nil || !cmp.Holds {
		fail("ContainedFixedRelation(φ, φ) = %+v, %v", cmp, err)
	}

	k := rng.Intn(n + 2)
	first, err := First(phi, db, k, b)
	if err != nil {
		fail("First(%d): %v", k, err)
	}
	if sub, err := first.SubsetOf(truth); err != nil || !sub || first.Len() != min(k, n) {
		fail("First(%d) = %v rows, subset %v, %v", k, first.Len(), sub, err)
	}
}

// tupleOutside returns a tuple over r's scheme and the parity domain that
// r lacks, or nil when r holds all of them.
func tupleOutside(r *relation.Relation) relation.Tuple {
	tp := make(relation.Tuple, r.Scheme().Len())
	var fill func(i int) bool
	fill = func(i int) bool {
		if i == len(tp) {
			return !r.Contains(tp)
		}
		for _, v := range parityDomain {
			if tp[i] = v; fill(i + 1) {
				return true
			}
		}
		return false
	}
	if fill(0) {
		return tp
	}
	return nil
}
