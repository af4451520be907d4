package fault

import (
	"sync"
	"testing"
	"time"
)

func TestHitDisabledIsNoOp(t *testing.T) {
	if Enabled() {
		t.Fatal("injector registered at test start")
	}
	Hit(JoinStart) // must not panic, sleep, or do anything observable
}

func TestSetRestore(t *testing.T) {
	s := NewScript()
	restore := Set(s)
	if !Enabled() {
		t.Fatal("Enabled() = false after Set")
	}
	Hit(JoinStart)
	if s.Count(JoinStart) != 1 {
		t.Fatalf("Count = %d, want 1", s.Count(JoinStart))
	}
	restore()
	if Enabled() {
		t.Fatal("Enabled() = true after restore")
	}
	Hit(JoinStart)
	if s.Count(JoinStart) != 1 {
		t.Fatal("Hit after restore still reached the script")
	}
}

func TestScriptPanicOnNth(t *testing.T) {
	s := NewScript(Rule{Point: WCOJSearch, N: 3, Act: Panic})
	restore := Set(s)
	defer restore()
	Hit(WCOJSearch)
	Hit(WCOJSearch)
	defer func() {
		r := recover()
		ip, ok := r.(*InjectedPanic)
		if !ok {
			t.Fatalf("recover() = %v (%T), want *InjectedPanic", r, r)
		}
		if ip.Point != WCOJSearch || ip.N != 3 {
			t.Fatalf("InjectedPanic = %+v", ip)
		}
		if ip.String() == "" {
			t.Error("empty panic description")
		}
	}()
	Hit(WCOJSearch)
}

func TestScriptCallAndEvery(t *testing.T) {
	calls := 0
	s := NewScript(
		Rule{Point: Semijoin, N: 2, Act: Call, Func: func() { calls++ }},
		Rule{Point: JoinBatch, N: 3, Every: true, Act: Call, Func: func() { calls += 100 }},
	)
	restore := Set(s)
	defer restore()
	for i := 0; i < 4; i++ {
		Hit(Semijoin)
		Hit(JoinBatch)
	}
	// Semijoin fires once (crossing 2); JoinBatch fires on crossings 3
	// and 4.
	if calls != 1+200 {
		t.Fatalf("calls = %d, want 201", calls)
	}
}

func TestScriptSleep(t *testing.T) {
	s := NewScript(Rule{Point: JoinStart, N: 1, Act: Sleep, Delay: 30 * time.Millisecond})
	restore := Set(s)
	defer restore()
	start := time.Now()
	Hit(JoinStart)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("slow-operator injection slept only %v", d)
	}
}

func TestScriptConcurrentCounters(t *testing.T) {
	s := NewScript()
	restore := Set(s)
	defer restore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				Hit(EvalNode)
			}
		}()
	}
	wg.Wait()
	if got := s.Count(EvalNode); got != 8000 {
		t.Fatalf("Count = %d, want 8000", got)
	}
}

func TestSeededDeterminism(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := Seeded(seed, JoinBatch, 50, Panic, 0, nil)
		b := Seeded(seed, JoinBatch, 50, Panic, 0, nil)
		if a.rules[0].N != b.rules[0].N {
			t.Fatalf("seed %d not deterministic: %d vs %d", seed, a.rules[0].N, b.rules[0].N)
		}
		if n := a.rules[0].N; n < 1 || n > 50 {
			t.Fatalf("seed %d landed outside window: %d", seed, n)
		}
	}
	// Different seeds should spread (not all land on the same crossing).
	seen := map[int64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		seen[Seeded(seed, JoinBatch, 50, Panic, 0, nil).rules[0].N] = true
	}
	if len(seen) < 10 {
		t.Fatalf("50 seeds landed on only %d distinct crossings", len(seen))
	}
}

func TestPoints(t *testing.T) {
	pts := Points()
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	uniq := map[Point]bool{}
	for _, p := range pts {
		if uniq[p] {
			t.Fatalf("duplicate point %s", p)
		}
		uniq[p] = true
	}
}

// BenchmarkHitDisabled measures the cost of a compiled-in injection site
// with no injector registered — the zero-overhead claim recorded in
// BENCH_fault.txt. Expect sub-nanosecond per Hit (one atomic load).
func BenchmarkHitDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Hit(JoinBatch)
	}
}

// BenchmarkHitEnabledNoMatch measures a registered script whose rules
// never match — the worst case a fault-injecting test pays on its
// non-faulting sites.
func BenchmarkHitEnabledNoMatch(b *testing.B) {
	restore := Set(NewScript(Rule{Point: JoinStart, N: 1 << 62, Act: Sleep}))
	defer restore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hit(JoinBatch)
	}
}

// TestFiringsCounted: crossings delivered to an injector increment the
// process-wide per-point firing counters; disabled crossings do not. The
// counters are global and monotonic, so the test asserts deltas.
func TestFiringsCounted(t *testing.T) {
	before := Firings()
	Hit(JoinBatch) // no injector: must not count
	restore := Set(NewScript())
	Hit(JoinBatch)
	Hit(JoinBatch)
	Hit(WCOJSearch)
	restore()
	Hit(JoinBatch) // injector gone again: must not count
	after := Firings()
	if got := after[JoinBatch] - before[JoinBatch]; got != 2 {
		t.Errorf("JoinBatch firings delta = %d, want 2", got)
	}
	if got := after[WCOJSearch] - before[WCOJSearch]; got != 1 {
		t.Errorf("WCOJSearch firings delta = %d, want 1", got)
	}
}
