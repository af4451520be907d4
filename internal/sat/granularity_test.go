package sat

import (
	"context"
	"errors"
	"testing"

	"relquery/internal/governor"
)

// countingContext wraps a cancelable context and counts Err polls, so a
// test can observe *when* a solver looks at its context, not just that
// it eventually aborts. After failAfter polls (0 = never) it cancels the
// underlying context, simulating mid-search expiry at a known step.
type countingContext struct {
	context.Context
	cancel    context.CancelFunc
	polls     int
	failAfter int
}

func newCountingContext(failAfter int) *countingContext {
	ctx, cancel := context.WithCancel(context.Background())
	return &countingContext{Context: ctx, cancel: cancel, failAfter: failAfter}
}

func (c *countingContext) Err() error {
	c.polls++
	if c.failAfter > 0 && c.polls >= c.failAfter {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSolversPollPeriodically runs each governed solver and counter to
// completion on an instance that outlasts several poll batches and
// asserts the context was polled more than once mid-search. This is the
// dynamic face of the govloop invariant: the inner search loop really
// does reach a poll every governor.CheckEvery steps, rather than
// checking only on entry and exit.
func TestSolversPollPeriodically(t *testing.T) {
	for name, s := range governedSearches() {
		t.Run(name, func(t *testing.T) {
			f := hardUnsatFormula(t, name)
			ctx := newCountingContext(0)
			defer ctx.cancel()
			got, err := s(govern(t, ctx), f)
			if err != nil {
				t.Fatal(err)
			}
			if got != 0 {
				t.Fatalf("pigeonhole instance reported satisfiable (result %d)", got)
			}
			if ctx.polls < 2 {
				t.Fatalf("search polled the context %d times over a search of well over %d steps; want periodic polls, not just entry/exit",
					ctx.polls, 2*governor.CheckEvery)
			}
		})
	}
}

// TestSolversAbortWithinOneBatch cancels the context at a known poll and
// asserts each solver and counter stops at that poll instead of
// searching on: the poll count after the abort stays within a small
// unwind allowance, so cancellation latency is bounded by one
// governor.CheckEvery batch of search steps plus teardown.
func TestSolversAbortWithinOneBatch(t *testing.T) {
	// Poll 2 is an injection point every search reaches on its hard
	// instance: each runs for several batches.
	const failAfter = 2
	for name, s := range governedSearches() {
		t.Run(name, func(t *testing.T) {
			f := hardUnsatFormula(t, name)
			ctx := newCountingContext(failAfter)
			defer ctx.cancel()
			_, err := s(govern(t, ctx), f)
			if !errors.Is(err, governor.ErrCanceled) {
				t.Fatalf("want governor.ErrCanceled, got %v", err)
			}
			if ctx.polls < failAfter {
				t.Fatalf("search finished after %d polls, before the injected cancellation at poll %d", ctx.polls, failAfter)
			}
			if ctx.polls > failAfter+2 {
				t.Fatalf("search polled %d times after cancellation fired at poll %d; it kept searching past the batch that observed expiry",
					ctx.polls-failAfter, failAfter)
			}
		})
	}
}
