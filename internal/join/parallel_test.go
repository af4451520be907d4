package join

import (
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/obs"
	"relquery/internal/relation"
)

// bigRel builds a relation large enough to clear MinParallelRows, with a
// controllable number of distinct join keys.
func bigRel(seed int64, scheme relation.Scheme, rows, keys int) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New(scheme)
	for i := 0; i < rows; i++ {
		r.MustAdd(relation.TupleOf(
			fmt.Sprintf("k%d", rng.Intn(keys)),
			fmt.Sprintf("v%d", i),
		))
	}
	return r
}

// TestParallelMatchesHashLarge exercises the real partitioned path
// (inputs above MinParallelRows) across worker counts and checks the
// result is set-equal to the sequential hash join AND byte-identical
// under sorted rendering.
func TestParallelMatchesHashLarge(t *testing.T) {
	left := bigRel(1, relation.MustScheme("K", "A"), 600, 37)
	right := bigRel(2, relation.MustScheme("K", "B"), 800, 37)
	want, err := Hash{}.Join(Exec{}, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < MinParallelRows {
		t.Fatalf("workload too small to be meaningful: %d output tuples", want.Len())
	}
	for _, workers := range []int{1, 2, 3, 8, 16} {
		got, err := Parallel{Workers: workers}.Join(Exec{}, left, right)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d: parallel join differs from hash join (%d vs %d tuples)", workers, got.Len(), want.Len())
		}
		if gr, wr := relation.RenderSorted(got), relation.RenderSorted(want); gr != wr {
			t.Fatalf("workers=%d: sorted rendering differs", workers)
		}
	}
}

// TestParallelDeterministicOrder checks the stronger property the
// parallel engine promises: the result's insertion order — not just its
// set of tuples — is independent of goroutine scheduling.
func TestParallelDeterministicOrder(t *testing.T) {
	left := bigRel(3, relation.MustScheme("K", "A"), 700, 23)
	right := bigRel(4, relation.MustScheme("K", "B"), 700, 23)
	alg := Parallel{Workers: 8}
	first, err := alg.Join(Exec{}, left, right)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := alg.Join(Exec{}, left, right)
		if err != nil {
			t.Fatal(err)
		}
		if again.Len() != first.Len() {
			t.Fatalf("run %d: %d tuples, want %d", run, again.Len(), first.Len())
		}
		for i := 0; i < first.Len(); i++ {
			if !first.Tuple(i).Equal(again.Tuple(i)) {
				t.Fatalf("run %d: insertion order diverged at tuple %d", run, i)
			}
		}
	}
}

// TestParallelCrossProductFallback: with no shared attributes every tuple
// has the same (empty) key, so Parallel must fall back to the sequential
// hash join rather than serializing through one bucket.
func TestParallelCrossProductFallback(t *testing.T) {
	left := bigRel(5, relation.MustScheme("A", "B"), 300, 300)
	right := bigRel(6, relation.MustScheme("C", "D"), 30, 30)
	want, err := Hash{}.Join(Exec{}, left, right)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parallel{Workers: 4}.Join(Exec{}, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("cross product differs: %d vs %d tuples", got.Len(), want.Len())
	}
}

// TestParallelDuplicateCollapse joins projections that produce duplicate
// output tuples within a key group; set semantics must collapse them
// exactly as the sequential join does.
func TestParallelDuplicateCollapse(t *testing.T) {
	// Many (key, value) pairs mapping to few distinct outputs after the
	// join: both sides repeat values so combine() yields duplicates.
	s := relation.MustScheme("K", "V")
	left := relation.New(s)
	right := relation.New(relation.MustScheme("K", "W"))
	for i := 0; i < 400; i++ {
		left.MustAdd(relation.TupleOf(fmt.Sprintf("k%d", i%10), fmt.Sprintf("v%d", i%3)))
		right.MustAdd(relation.TupleOf(fmt.Sprintf("k%d", i%10), fmt.Sprintf("w%d", i%3)))
	}
	want, err := Hash{}.Join(Exec{}, left, right)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parallel{Workers: 8}.Join(Exec{}, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("duplicate collapse differs: %d vs %d tuples", got.Len(), want.Len())
	}
}

// TestParallelDefaultWorkers checks the zero value is usable (workers
// default to GOMAXPROCS) and registered with the algorithm registry.
func TestParallelDefaultWorkers(t *testing.T) {
	alg, err := ByName("parallel")
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "parallel" {
		t.Fatalf("Name() = %q", alg.Name())
	}
	left := bigRel(7, relation.MustScheme("K", "A"), 500, 20)
	right := bigRel(8, relation.MustScheme("K", "B"), 500, 20)
	want, err := Hash{}.Join(Exec{}, left, right)
	if err != nil {
		t.Fatal(err)
	}
	got, err := alg.Join(Exec{}, left, right)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("default-worker parallel join differs from hash join")
	}
}

// TestParallelMulti runs the n-ary planner with the parallel algorithm,
// metered.
func TestParallelMulti(t *testing.T) {
	r1 := bigRel(9, relation.MustScheme("K", "A"), 600, 25)
	r2 := bigRel(10, relation.MustScheme("K", "B"), 600, 25)
	r3 := bigRel(11, relation.MustScheme("A", "C"), 600, 600)
	inputs := []*relation.Relation{r1, r2, r3}
	want, err := Multi(Exec{}, NewPlan(inputs...), Hash{}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Metrics
	got, err := Multi(Exec{Metrics: &m}, NewPlan(inputs...), Parallel{Workers: 8}, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("parallel Multi differs from sequential")
	}
	if joins := m.Snapshot().Joins; joins != 2 {
		t.Fatalf("joins = %d, want 2", joins)
	}
}

// TestParallelFewerProbeRowsThanWorkers covers the broadcast chunking
// boundary: a tiny probe side against more workers than rows. Below
// MinParallelRows the join must take the sequential fallback (no
// spurious Partitioned/Broadcast counts); above it, the broadcast path
// must skip the workers whose chunk is empty and still reproduce the
// sequential result exactly.
func TestParallelFewerProbeRowsThanWorkers(t *testing.T) {
	probe := rel(t, "K A", "k0 a0", "k1 a1", "k2 a2") // 3 rows, 8 workers

	t.Run("sequential fallback", func(t *testing.T) {
		build := rel(t, "K B", "k0 b0", "k1 b1", "k2 b2", "k3 b3")
		want, err := Hash{}.Join(Exec{}, build, probe)
		if err != nil {
			t.Fatal(err)
		}
		var m obs.Metrics
		got, err := Parallel{Workers: 8}.Join(Exec{Metrics: &m}, build, probe)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("fallback join differs: %d vs %d tuples", got.Len(), want.Len())
		}
		snap := m.Snapshot()
		if snap.PartitionedJoins != 0 || snap.BroadcastJoins != 0 {
			t.Errorf("tiny join counted partitioned=%d broadcast=%d", snap.PartitionedJoins, snap.BroadcastJoins)
		}
		if snap.SequentialFallbacks != 1 {
			t.Errorf("sequential fallbacks = %d, want 1", snap.SequentialFallbacks)
		}
	})

	t.Run("broadcast with empty chunks", func(t *testing.T) {
		// The parallel join builds on the smaller side, so the 3-row
		// relation becomes the build table (broadcast: 3 keys is far
		// below PartitionKeyFactor×workers) and the 400-row side is
		// probed. With more workers than probe rows the chunk math
		// assigns trailing workers empty ranges, which must be skipped,
		// not merged as empty slots.
		build := bigRel(13, relation.MustScheme("K", "B"), 400, 3)
		want, err := Hash{}.Join(Exec{}, build, probe)
		if err != nil {
			t.Fatal(err)
		}
		var m obs.Metrics
		got, err := Parallel{Workers: 512}.Join(Exec{Metrics: &m}, build, probe)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("broadcast join differs: %d vs %d tuples", got.Len(), want.Len())
		}
		if gr, wr := relation.RenderSorted(got), relation.RenderSorted(want); gr != wr {
			t.Fatal("sorted rendering differs")
		}
		snap := m.Snapshot()
		if snap.BroadcastJoins != 1 || snap.PartitionedJoins != 0 || snap.SequentialFallbacks != 0 {
			t.Errorf("strategy counts: broadcast=%d partitioned=%d fallback=%d, want 1/0/0",
				snap.BroadcastJoins, snap.PartitionedJoins, snap.SequentialFallbacks)
		}
	})
}
