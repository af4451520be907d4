package join

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// leakInputs builds a join pair large enough for the parallel paths
// (combined size ≥ MinParallelRows) whose build side has exactly
// distinctKeys distinct join keys — the knob that selects the
// partitioned strategy (many keys) or the broadcast strategy (few keys).
func leakInputs(t *testing.T, distinctKeys int) (l, r *relation.Relation) {
	t.Helper()
	l = relation.New(relation.MustScheme("K", "A"))
	r = relation.New(relation.MustScheme("K", "B"))
	for i := 0; i < 1024; i++ {
		l.MustAdd(relation.TupleOf(fmt.Sprintf("k%d", i%distinctKeys), fmt.Sprintf("a%d", i)))
	}
	for i := 0; i < 300; i++ {
		r.MustAdd(relation.TupleOf(fmt.Sprintf("k%d", i%distinctKeys), fmt.Sprintf("b%d", i)))
	}
	return l, r
}

// settleGoroutines waits for the process goroutine count to return to the
// pre-join level. Parallel.Join joins all workers (wg.Wait) before
// returning, so the count should already be settled; the loop only
// absorbs unrelated runtime goroutines winding down.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before join, %d after settling", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelCancelDrainsWorkers cancels the evaluation's context from
// inside the first parallel worker, on both the partitioned and the
// broadcast path: Join must return the typed governor.ErrCanceled, and
// no worker goroutine may outlive the call.
func TestParallelCancelDrainsWorkers(t *testing.T) {
	cases := []struct {
		name        string
		distinct    int
		wantChoice  func(s obs.MetricsSnapshot) int64
		choiceLabel string
	}{
		{"partitioned", 300, func(s obs.MetricsSnapshot) int64 { return s.PartitionedJoins }, "partitioned_joins"},
		{"broadcast", 5, func(s obs.MetricsSnapshot) int64 { return s.BroadcastJoins }, "broadcast_joins"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, r := leakInputs(t, tc.distinct)
			// Confirm the workload actually selects the intended strategy.
			var probe obs.Metrics
			if _, err := (Parallel{Workers: 4}).Join(Exec{Metrics: &probe}, l, r); err != nil {
				t.Fatal(err)
			}
			if n := tc.wantChoice(probe.Snapshot()); n != 1 {
				t.Fatalf("workload did not select the %s strategy (%s=%d)", tc.name, tc.choiceLabel, n)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			restore := fault.Set(fault.NewScript(fault.Rule{
				Point: fault.ParallelWorker, Act: fault.Call, Func: cancel,
			}))
			defer restore()
			gov := governor.New(ctx, governor.Limits{})
			before := runtime.NumGoroutine()
			_, err := (Parallel{Workers: 4}).Join(Exec{Gov: gov}, l, r)
			if !errors.Is(err, governor.ErrCanceled) {
				t.Fatalf("want governor.ErrCanceled, got %v", err)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestParallelWorkerPanicDrains panics a worker goroutine on both
// parallel paths: the panic must be recovered on the worker, surface from
// Join as an error carrying the *fault.InjectedPanic payload, and leave
// no goroutine behind.
func TestParallelWorkerPanicDrains(t *testing.T) {
	for _, tc := range []struct {
		name     string
		distinct int
	}{
		{"partitioned", 300},
		{"broadcast", 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, r := leakInputs(t, tc.distinct)
			restore := fault.Set(fault.NewScript(fault.Rule{
				Point: fault.ParallelWorker, Act: fault.Panic,
			}))
			defer restore()
			before := runtime.NumGoroutine()
			_, err := (Parallel{Workers: 4}).Join(Exec{}, l, r)
			if err == nil {
				t.Fatal("worker panic did not surface as an error")
			}
			var ip *fault.InjectedPanic
			if !errors.As(err, &ip) {
				t.Fatalf("worker panic lost its payload: %v", err)
			}
			settleGoroutines(t, before)
		})
	}
}

// TestParallelPeersDrainOnStickyFailure verifies the sticky-failure
// broadcast: when one worker trips a checkpoint, the shared governor
// makes every peer's next poll fail, so the join returns the first error
// rather than hanging on healthy workers — and a subsequent governed run
// under a fresh governor is unaffected.
func TestParallelPeersDrainOnStickyFailure(t *testing.T) {
	l, r := leakInputs(t, 300)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	restore := fault.Set(fault.NewScript(fault.Rule{
		Point: fault.ParallelWorker, N: 2, Act: fault.Call, Func: cancel,
	}))
	gov := governor.New(ctx, governor.Limits{})
	_, err := (Parallel{Workers: 4}).Join(Exec{Gov: gov}, l, r)
	restore()
	if !errors.Is(err, governor.ErrCanceled) {
		t.Fatalf("want governor.ErrCanceled, got %v", err)
	}
	if gov.Err() == nil {
		t.Fatal("governor did not latch the sticky failure")
	}

	// A fresh governor on a live context runs the same join to completion
	// and matches the sequential hash join exactly.
	gov2 := governor.New(context.Background(), governor.Limits{MaxIntermediateRows: 1 << 20})
	got, err := (Parallel{Workers: 4}).Join(Exec{Gov: gov2}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (Hash{}).Join(Exec{}, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if relation.RenderSorted(got) != relation.RenderSorted(want) {
		t.Fatal("governed parallel join differs from sequential hash join")
	}
}
