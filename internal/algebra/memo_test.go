package algebra

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// parkedLeader starts a Do on key and returns once its compute is running;
// the compute returns (v, err) when release is closed, and done yields Do's
// error.
func parkedLeader(m *Memo[int], key string, v int, err error) (release chan struct{}, done chan error) {
	entered := make(chan struct{})
	release, done = make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, derr := m.Do(nil, []byte(key), func() (int, error) {
			close(entered)
			<-release
			return v, err
		})
		done <- derr
	}()
	<-entered
	return release, done
}

// TestMemoComputeOnceAcrossCallers: sixteen concurrent callers of one cold
// key run compute once between them; the other fifteen are hits.
func TestMemoComputeOnceAcrossCallers(t *testing.T) {
	m := NewMemo[int](0, nil)
	var computed, hits atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := m.Do(nil, []byte("k"), func() (int, error) {
				computed.Add(1)
				time.Sleep(time.Millisecond) // let the others arrive mid-computation
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if computed.Load() != 1 || hits.Load() != 15 {
		t.Errorf("computed %d times, %d hits; want 1 and 15", computed.Load(), hits.Load())
	}
	if h, miss, _, entries, _ := m.Counters(); miss != 1 || h != 15 || entries != 1 {
		t.Errorf("%d misses, %d hits, %d entries; want 1, 15, 1", miss, h, entries)
	}
}

// TestMemoWaiterComputesAfterLeaderFails: the leader's error is the
// leader's. A caller that waited on it computes for itself, and what it
// computed is what the store then holds.
func TestMemoWaiterComputesAfterLeaderFails(t *testing.T) {
	m := NewMemo[int](0, nil)
	boom := errors.New("leader's own budget")
	release, leader := parkedLeader(m, "k", 0, boom)

	waiter := make(chan struct{})
	go func() {
		defer close(waiter)
		if v, hit, err := m.Do(nil, []byte("k"), func() (int, error) { return 7, nil }); v != 7 || hit || err != nil {
			t.Errorf("waiter got %d, hit=%v, %v; want its own 7, computed", v, hit, err)
		}
	}()
	close(release)
	if err := <-leader; !errors.Is(err, boom) {
		t.Errorf("leader got %v, want its own error", err)
	}
	<-waiter
	if v, hit, err := m.Do(nil, []byte("k"), func() (int, error) { return 0, errors.New("not reached") }); v != 7 || !hit || err != nil {
		t.Errorf("after the failure: %d, hit=%v, %v; want the waiter's 7 from the store", v, hit, err)
	}
}

// TestMemoWaiterStopsAtItsOwnLimits: behind a parked leader, a waiter with
// a deadline leaves with ErrDeadline and one whose context is canceled with
// ErrCanceled; the leader's value still lands.
func TestMemoWaiterStopsAtItsOwnLimits(t *testing.T) {
	m := NewMemo[int](0, nil)
	release, leader := parkedLeader(m, "k", 42, nil)
	unreached := func() (int, error) { return 0, errors.New("a waiter computed behind a live leader") }

	gov := governor.New(context.Background(), governor.Limits{Deadline: 10 * time.Millisecond})
	if _, _, err := m.Do(gov, []byte("k"), unreached); !errors.Is(err, governor.ErrDeadline) {
		t.Errorf("waiter with a 10ms deadline: %v, want ErrDeadline", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, _, err := m.Do(governor.New(ctx, governor.Limits{}), []byte("k"), unreached); !errors.Is(err, governor.ErrCanceled) {
		t.Errorf("waiter whose context is canceled: %v, want ErrCanceled", err)
	}

	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v, hit, err := m.Do(nil, []byte("k"), unreached); v != 42 || !hit || err != nil {
		t.Errorf("after the waiters left: %d, hit=%v, %v; want the leader's 42", v, hit, err)
	}
}

// TestMemoPanickingLeaderReleasesWaiters: a compute that panics takes its
// entry with it, so nobody waits on it for ever.
func TestMemoPanickingLeaderReleasesWaiters(t *testing.T) {
	m := NewMemo[int](0, nil)
	entered, release := make(chan struct{}), make(chan struct{})
	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		m.Do(nil, []byte("k"), func() (int, error) {
			close(entered)
			<-release
			panic("engine bug")
		})
	}()
	<-entered
	waiter := make(chan int, 1)
	go func() {
		v, _, _ := m.Do(nil, []byte("k"), func() (int, error) { return 7, nil })
		waiter <- v
	}()
	close(release)
	if rec := <-leader; rec == nil {
		t.Error("the panic did not reach the leader's caller")
	}
	if v := <-waiter; v != 7 {
		t.Errorf("waiter behind a panicking leader got %d, want its own 7", v)
	}
}

// TestSharedResultsAreBounded: under a stream of distinct contents the
// resident results never weigh more than the bound — the store is dropped
// wholesale when it would — while a query repeated throughout stays a hit
// from one drop to the next.
func TestSharedResultsAreBounded(t *testing.T) {
	const bound = 5000
	shared := newSubexprCache(bound)
	content := func(seed int) relation.Database {
		r := relation.New(relation.MustScheme("A", "B", "C"))
		for i := 0; i < 40; i++ {
			r.MustAdd(relation.TupleOf(fmt.Sprint(seed+i%5), fmt.Sprint(i%8), fmt.Sprint(i)))
		}
		return relation.Single("T", r)
	}
	warm := content(0)
	e, err := ParseForDatabase("pi[A B](T) * pi[B C](T) * pi[A C](T)", warm)
	if err != nil {
		t.Fatal(err)
	}
	rootHit := func(db relation.Database) bool {
		t.Helper()
		col := &obs.Collector{}
		if _, err := (&Evaluator{SharedCache: shared, Collector: col}).Eval(e, db); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, w := shared.results.Counters(); w > bound {
			t.Fatalf("%d values resident, bound %d", w, bound)
		}
		return col.Trace().Root().Cache == obs.CacheHit
	}

	const stream = 100
	repeatMisses := 0
	for i := 1; i <= stream; i++ {
		if rootHit(content(i * 100)) {
			t.Fatalf("distinct content %d was a hit", i)
		}
		if !rootHit(warm) {
			repeatMisses++ // the stream just dropped the store
		}
		if !rootHit(warm) {
			t.Fatalf("after %d distinct contents the repeated query missed twice running", i)
		}
	}
	if _, _, dropped, _, _ := shared.results.Counters(); dropped == 0 {
		t.Fatal("the stream never reached the bound")
	}
	// A wholesale drop costs the repeated query one miss; between drops —
	// about a dozen contents apart here — it hits.
	if repeatMisses == 0 || repeatMisses > stream/5 {
		t.Errorf("the repeated query missed %d times in %d rounds", repeatMisses, stream)
	}
}
