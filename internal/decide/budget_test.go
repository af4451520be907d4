package decide

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestBudgetBoundary pins the budget contract of the procedures that
// stop Enumerate's stream: Budget{MaxTuples: k} answers definitively
// whenever k visited tuples suffice to decide, and otherwise returns a
// wrapped ErrBudget — never a definitive answer the truncated search
// cannot justify. Each case self-calibrates the deciding visit (the
// smallest sufficient budget) and then checks the three boundary
// budgets: exactly at, one below, one above.
func TestBudgetBoundary(t *testing.T) {
	db := testDB(t)
	// π_AC(π_AB(T) ∗ π_BC(T)) has 5 valuations and streams its 4 tuples,
	// each once, so early-deciding and exhaustion-requiring cases have
	// different deciding visits.
	phi := expr(t, "pi[A C](pi[A B](T) * pi[B C](T))", db)

	cases := []struct {
		name string
		run  func(b Budget) (any, error)
		want any
	}{
		{"CardAtLeast early yes", func(b Budget) (any, error) { return CardAtLeast(phi, db, 3, b) }, true},
		{"CardAtLeast exhaustive no", func(b Budget) (any, error) { return CardAtLeast(phi, db, 5, b) }, false},
		{"CardAtMost early no", func(b Budget) (any, error) { return CardAtMost(phi, db, 3, b) }, false},
		{"CardAtMost exhaustive yes", func(b Budget) (any, error) { return CardAtMost(phi, db, 4, b) }, true},
		{"CardBetween", func(b Budget) (any, error) { return CardBetween(phi, db, 2, 4, b) }, true},
		{"Count", func(b Budget) (any, error) { return Count(phi, db, b) }, 4},
		{"ResultSubset early no", func(b Budget) (any, error) {
			cmp, err := ResultSubset(phi, db, mkrel(t, "A C", "1 p"), b)
			return cmp.Holds, err
		}, false},
		{"ResultSubset exhaustive yes", func(b Budget) (any, error) {
			cmp, err := ResultSubset(phi, db, mkrel(t, "A C", "1 p", "1 q", "2 p", "2 q"), b)
			return cmp.Holds, err
		}, true},
		{"ContainedFixedRelation", func(b Budget) (any, error) {
			cmp, err := ContainedFixedRelation(phi, phi, db, b)
			return cmp.Holds, err
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run(Budget{})
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("unlimited budget: got %v, want %v", got, tc.want)
			}

			// Calibrate: the deciding visit is the smallest budget that
			// answers definitively. Every smaller budget must refuse
			// with ErrBudget (never decide, and in particular never
			// decide wrongly).
			deciding := -1
			for k := 1; k <= 64; k++ {
				g, err := tc.run(Budget{MaxTuples: k})
				if err == nil {
					if g != tc.want {
						t.Fatalf("MaxTuples=%d: definitive %v, want %v", k, g, tc.want)
					}
					deciding = k
					break
				}
				if !errors.Is(err, ErrBudget) {
					t.Fatalf("MaxTuples=%d: unexpected error %v", k, err)
				}
			}
			if deciding < 0 {
				t.Fatal("no budget up to 64 sufficed")
			}

			// One below: wrapped ErrBudget, no definitive answer.
			if deciding > 1 {
				if _, err := tc.run(Budget{MaxTuples: deciding - 1}); !errors.Is(err, ErrBudget) {
					t.Errorf("MaxTuples=%d (one below deciding): err = %v, want ErrBudget", deciding-1, err)
				}
			}
			// One above: still definitive with the same answer.
			g, err := tc.run(Budget{MaxTuples: deciding + 1})
			if err != nil {
				t.Errorf("MaxTuples=%d (one above deciding): %v", deciding+1, err)
			} else if g != tc.want {
				t.Errorf("MaxTuples=%d: got %v, want %v", deciding+1, g, tc.want)
			}
		})
	}
}

// TestBudgetErrorCountsOnlyExaminedTuples locks the tick ordering fix:
// the budget gate runs before the counter moves, so the error reports
// exactly the admitted visits — not the refused tuple.
func TestBudgetErrorCountsOnlyExaminedTuples(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A C](pi[A B](T) * pi[B C](T))", db)
	const k = 2
	_, err := Count(phi, db, Budget{MaxTuples: k})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Count under budget %d: err = %v, want ErrBudget", k, err)
	}
	if want := fmt.Sprintf("visited %d tuples", k); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not report %q", err, want)
	}
}

// TestStreamDistinctDecidesOnFinalVisit builds the sharpest boundary on
// Enumerate's stream: the query's deciding tuple is its LAST valuation
// visit, so the sufficient budget equals the total stream length and one
// less must refuse.
func TestStreamDistinctDecidesOnFinalVisit(t *testing.T) {
	db := testDB(t)
	phi := expr(t, "pi[A C](pi[A B](T) * pi[B C](T))", db)
	// Total visits = 5 (calibrated by Count's deciding budget, which
	// needs full exhaustion).
	total := -1
	for k := 1; k <= 64; k++ {
		if _, err := Count(phi, db, Budget{MaxTuples: k}); err == nil {
			total = k
			break
		}
	}
	if total < 0 {
		t.Fatal("count never decided")
	}
	// |φ(db)| = 4, so CardAtLeast(4) must visit until the 4th distinct
	// tuple appears — provably within the stream — and succeed with
	// exactly that many visits allowed.
	ok, err := CardAtLeast(phi, db, 4, Budget{MaxTuples: total})
	if err != nil || !ok {
		t.Fatalf("CardAtLeast(4) under budget %d: %v, %v", total, ok, err)
	}
}
