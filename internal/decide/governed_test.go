package decide

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/governor"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// pigeonholeGadget builds the Lemma 1 gadget for a pigeonhole formula:
// the membership and fixpoint searches over it are resolution-hard, so
// they are guaranteed to outlast the governor's 256-tick poll batch —
// the workload that exposed ungoverned valuation searches (a satreduce
// -timeout run that never fired).
func pigeonholeGadget(t *testing.T) (*reduction.Construction, error) {
	t.Helper()
	g, err := cnf.Pigeonhole(3)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := cnf.To3CNF(g)
	if err != nil {
		t.Fatal(err)
	}
	g3, _ = cnf.Compact(g3)
	return reduction.New(g3)
}

// TestMemberBudgetCanceledMidSearch covers the NP half: the u_G
// membership search (SAT via Proposition 1) under a dead context must
// abort with the typed sentinel instead of exhausting the exponential
// valuation tree.
func TestMemberBudgetCanceledMidSearch(t *testing.T) {
	c, err := pigeonholeGadget(t)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	py, err := algebra.NewProject(c.YScheme(), phi)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// u_G ∈ π_Y(φ_G(R_G)) is Proposition 1's SAT question; pigeonhole is
	// unsatisfiable, so an ungoverned search would refute it only after
	// exhausting the valuation tree.
	if _, err := MemberBudget(c.UG(), py, c.Database(), Budget{}.WithContext(ctx)); !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("want governor.ErrCanceled from the membership search, got %v", err)
	}
}

// TestResultEqualsGovernedDeadline covers the fixpoint route (UNSAT via
// φ_G(R_G) = R_G): ConjecturedSubset's per-tuple membership searches
// run under the budget's governor, so an expired deadline kills the
// decision with governor.ErrDeadline — previously this half was
// entirely ungoverned and a hard instance hung forever.
func TestResultEqualsGovernedDeadline(t *testing.T) {
	c, err := pigeonholeGadget(t)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1)
	defer cancel()
	<-ctx.Done()
	if _, err := ResultEquals(phi, c.Database(), c.R, Budget{}.WithContext(ctx)); !errors.Is(err, governor.ErrDeadline) {
		t.Fatalf("want governor.ErrDeadline from the fixpoint decision, got %v", err)
	}
}

// TestGovernedSearchesMatchUngoverned verifies the governed paths are
// pure plumbing: under a live background context every decision agrees
// with its ungoverned counterpart on the paper example's gadget.
func TestGovernedSearchesMatchUngoverned(t *testing.T) {
	g, err := cnf.Parse("(x1 + x2 + x3)(~x2 + x3 + ~x4)(~x3 + ~x4 + ~x5)")
	if err != nil {
		t.Fatal(err)
	}
	c, err := reduction.New(g)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	b := Budget{}.WithContext(context.Background())
	want, err := ResultEquals(phi, c.Database(), c.R, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ResultEquals(phi, c.Database(), c.R, b)
	if err != nil {
		t.Fatal(err)
	}
	if want.Holds != got.Holds {
		t.Fatalf("governed ResultEquals says %v, ungoverned says %v", got.Holds, want.Holds)
	}
}

// crossDB builds three disjoint-scheme relations of 16 rows each: their
// join is a pure cross product with 16³ = 4096 tuples, so the streaming
// search is guaranteed to pass a 256-tick governor poll.
func crossDB(t *testing.T) (algebra.Expr, relation.Database) {
	t.Helper()
	db := relation.Database{}
	for i, pair := range [][2]relation.Attribute{{"A", "B"}, {"C", "D"}, {"E", "F"}} {
		r := relation.New(relation.MustScheme(pair[0], pair[1]))
		for k := 0; k < 16; k++ {
			r.MustAdd(relation.TupleOf(fmt.Sprintf("v%d_%d", i, k), fmt.Sprintf("w%d_%d", i, k)))
		}
		db[fmt.Sprintf("R%d", i)] = r
	}
	return expr(t, "R0 * R1 * R2", db), db
}

// TestEnumerateGovCanceled aborts a 4096-tuple enumeration with a
// pre-canceled context: Enumerate must stop within one poll batch and
// surface governor.ErrCanceled instead of silently returning a truncated
// stream. A search that would finish inside one poll batch fails too, on
// entry, and so does Member.
func TestEnumerateGovCanceled(t *testing.T) {
	phi, db := crossDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := Budget{Gov: governor.New(ctx, governor.Limits{})}
	yields := 0
	err := Enumerate(phi, db, b, func(relation.Tuple) bool {
		yields++
		return true
	})
	if !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("want governor.ErrCanceled, got %v (after %d yields)", err, yields)
	}
	if yields >= 4096 {
		t.Fatal("search ran to exhaustion despite the canceled context")
	}
	small := relation.Single("T", mkrel(t, "A", "a"))
	one := algebra.MustOperand("T", small["T"].Scheme())
	err = Enumerate(one, small, b, func(relation.Tuple) bool {
		yields = -1
		return true
	})
	if !errors.Is(err, governor.ErrCanceled) || yields < 0 {
		t.Fatalf("a one-row stream under a canceled context: want governor.ErrCanceled and no yield, got %v", err)
	}
	hit := relation.NamedTuple{Scheme: small["T"].Scheme(), Vals: relation.TupleOf("a")}
	if ok, err := MemberBudget(hit, one, small, b); !errors.Is(err, governor.ErrCanceled) || ok {
		t.Fatalf("a one-row membership test under a canceled context: want governor.ErrCanceled, got %v, %v", ok, err)
	}
}

// TestEnumerateNilGovernorIsUnlimited verifies the nil governor is
// exactly an unlimited one: same tuples, same count.
func TestEnumerateNilGovernorIsUnlimited(t *testing.T) {
	phi, db := crossDB(t)
	count := func(gov *governor.Governor) (int, error) {
		return Count(phi, db, Budget{Gov: gov})
	}
	ungoverned, err := count(nil)
	if err != nil {
		t.Fatal(err)
	}
	governed, err := count(governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 1 << 20}))
	if err != nil {
		t.Fatal(err)
	}
	if ungoverned != governed || ungoverned != 16*16*16 {
		t.Fatalf("governed stream yielded %d tuples, ungoverned %d, want %d", governed, ungoverned, 16*16*16)
	}
}

// TestDecidersHonorRowBudget: the budget's governor bounds what the
// evaluations materialize and answer, as it bounds the materializing
// engines. The membership search reads π_AB(T) and π_BC(T), three rows
// each, so a row budget of 3 passes it and one of 2 stops it with
// governor.ErrRowBudget; the stream of the projection also collects its
// four tuples first.
func TestDecidersHonorRowBudget(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A C](pi[A B](T) * pi[B C](T))", db)
	nt := relation.NamedTuple{Scheme: phi.Scheme(), Vals: relation.TupleOf("1", "p")}
	under := func(rows int) Budget {
		return Budget{Gov: governor.New(context.Background(), governor.Limits{MaxIntermediateRows: rows})}
	}
	for _, c := range []struct {
		name string
		run  func(Budget) error
		fits int
	}{
		{"Member", func(b Budget) error { _, err := MemberBudget(nt, phi, db, b); return err }, 3},
		{"Count", func(b Budget) error { _, err := Count(phi, db, b); return err }, 4},
	} {
		if err := c.run(under(c.fits)); err != nil {
			t.Errorf("%s under a budget of %d rows: %v", c.name, c.fits, err)
		}
		if err := c.run(under(c.fits - 1)); !errors.Is(err, governor.ErrRowBudget) {
			t.Errorf("%s under a budget of %d rows: %v, want governor.ErrRowBudget", c.name, c.fits-1, err)
		}
	}
	// The output cap bounds each evaluation's answer: Count's collects
	// φ(db)'s four tuples, Member's is one row at most.
	capped := func(rows int) Budget {
		return Budget{Gov: governor.New(context.Background(), governor.Limits{MaxRows: rows})}
	}
	if _, err := Count(phi, db, capped(4)); err != nil {
		t.Errorf("Count under an output cap of 4 rows: %v", err)
	}
	if _, err := Count(phi, db, capped(3)); !errors.Is(err, governor.ErrRowBudget) {
		t.Errorf("Count under an output cap of 3 rows: %v, want governor.ErrRowBudget", err)
	}
	if ok, err := MemberBudget(nt, phi, db, capped(1)); err != nil || !ok {
		t.Errorf("Member under an output cap of 1 row: %v, %v", ok, err)
	}
}
