package tableau

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/relation"
)

// crossDB builds three disjoint-scheme relations of 16 rows each: their
// join is a pure cross product with 16³ = 4096 valuations, so the
// streaming search is guaranteed to pass a 256-tick governor poll.
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
	expr, err := algebra.ParseForDatabase("R0 * R1 * R2", db)
	if err != nil {
		t.Fatal(err)
	}
	return expr, db
}

// TestStreamGovCanceled aborts a 4096-valuation enumeration with a
// pre-canceled context: Stream must stop within one poll batch and
// surface governor.ErrCanceled instead of silently returning a
// truncated stream. A search that would finish inside one poll batch
// fails too, on entry, and so does Member.
func TestStreamGovCanceled(t *testing.T) {
	expr, db := crossDB(t)
	tb, err := New(expr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gov := governor.New(ctx, governor.Limits{})
	yields := 0
	err = tb.Stream(db, gov, func(relation.Tuple) bool {
		yields++
		return true
	})
	if !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("want governor.ErrCanceled, got %v (after %d yields)", err, yields)
	}
	if yields >= 4096 {
		t.Fatal("search ran to exhaustion despite the canceled context")
	}
	small := relation.Single("T", relation.New(relation.MustScheme("A")))
	small["T"].MustAdd(relation.TupleOf("a"))
	tb, err = New(algebra.MustOperand("T", small["T"].Scheme()))
	if err != nil {
		t.Fatal(err)
	}
	err = tb.Stream(small, gov, func(relation.Tuple) bool {
		yields = -1
		return true
	})
	if !errors.Is(err, governor.ErrCanceled) || yields < 0 {
		t.Fatalf("a one-row stream under a canceled context: want governor.ErrCanceled and no yield, got %v", err)
	}
	hit := relation.NamedTuple{Scheme: small["T"].Scheme(), Vals: relation.TupleOf("a")}
	if ok, err := tb.Member(hit, small, gov); !errors.Is(err, governor.ErrCanceled) || ok {
		t.Fatalf("a one-row membership test under a canceled context: want governor.ErrCanceled, got %v, %v", ok, err)
	}
}

// TestStreamGovNilMatchesStream verifies the nil governor is exactly
// an unlimited one: same tuples, same count.
func TestStreamGovNilMatchesStream(t *testing.T) {
	expr, db := crossDB(t)
	tb, err := New(expr)
	if err != nil {
		t.Fatal(err)
	}
	count := func(gov *governor.Governor) (int, error) {
		n := 0
		err := tb.Stream(db, gov, func(relation.Tuple) bool {
			n++
			return true
		})
		return n, err
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
