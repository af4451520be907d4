package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	var h histogram
	for _, v := range []float64{0, -1, 0.5, 1, 1.5, 2, 1024, math.NaN(), 1e30} {
		h.observe(v)
	}
	s := h.snapshot()
	if s.Count != 8 { // NaN ignored
		t.Fatalf("Count = %d, want 8", s.Count)
	}
	wantSum := 0.0 + -1 + 0.5 + 1 + 1.5 + 2 + 1024 + 1e30
	if s.Sum != wantSum {
		t.Fatalf("Sum = %g, want %g", s.Sum, wantSum)
	}
	// Per-bucket expectations: 0 and -1 land in the lowest bucket,
	// 0.5 and 1 in their exact power-of-two buckets, 1.5 and 2 in le=2,
	// 1024 in le=1024, 1e30 in the overflow bucket.
	counts := map[float64]int64{}
	for _, b := range s.Buckets {
		counts[b.UpperBound] = b.Count
	}
	if got := counts[bucketBound(0)]; got != 2 {
		t.Errorf("lowest bucket = %d, want 2 (zero and negative)", got)
	}
	if got := counts[0.5]; got != 1 {
		t.Errorf("le=0.5 bucket = %d, want 1", got)
	}
	if got := counts[1]; got != 1 {
		t.Errorf("le=1 bucket = %d, want 1", got)
	}
	if got := counts[2]; got != 2 {
		t.Errorf("le=2 bucket = %d, want 2", got)
	}
	if got := counts[1024]; got != 1 {
		t.Errorf("le=1024 bucket = %d, want 1", got)
	}
	if got := counts[bucketBound(histBuckets-1)]; got != 1 {
		t.Errorf("overflow bucket = %d, want 1", got)
	}
	// Buckets must come out in increasing bound order with no empties.
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].UpperBound <= s.Buckets[i-1].UpperBound {
			t.Fatalf("bucket bounds not increasing: %v", s.Buckets)
		}
	}
	for _, b := range s.Buckets {
		if b.Count == 0 {
			t.Fatalf("empty bucket in snapshot: %v", s.Buckets)
		}
	}
}

// TestHistogramBucketIndexExact pins the boundary convention: a power of
// two is the *upper* bound of its bucket (le is inclusive, Prometheus
// style).
func TestHistogramBucketIndexExact(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want float64 // expected upper bound
	}{
		{1, 1}, {1.0001, 2}, {2, 2}, {0.25, 0.25}, {0.3, 0.5}, {3, 4}, {4, 4}, {5, 8},
	} {
		if got := bucketBound(bucketIndex(tc.v)); got != tc.want {
			t.Errorf("bucketBound(bucketIndex(%g)) = %g, want %g", tc.v, got, tc.want)
		}
	}
}

func TestRegistryObserve(t *testing.T) {
	reg := NewRegistry()

	// Two traced evaluations and one collector-less one.
	t1 := &Trace{
		Roots: []*Span{{
			Op: OpJoin, OutputRows: 10, MaxIntermediate: 50, AGMBound: 100,
		}},
		Metrics: MetricsSnapshot{Joins: 2, MaxIntermediate: 50, ViolationsRowBudget: 1},
	}
	t2 := &Trace{
		Roots: []*Span{{
			Op: OpProject, OutputRows: 3,
			Children: []*Span{{Op: OpJoin, OutputRows: 8, AGMBound: 10}},
		}},
		Metrics: MetricsSnapshot{Joins: 1, MaxIntermediate: 8, ViolationsAdmission: 2},
	}
	reg.Observe(t1, 10*time.Millisecond)
	reg.Observe(t2, 20*time.Millisecond)
	reg.Observe(nil, 5*time.Millisecond)

	s := reg.Snapshot()
	if s.Evals != 3 {
		t.Fatalf("Evals = %d, want 3", s.Evals)
	}
	if s.Metrics.Joins != 3 {
		t.Errorf("total Joins = %d, want 3", s.Metrics.Joins)
	}
	if s.Metrics.MaxIntermediate != 50 {
		t.Errorf("MaxIntermediate = %d, want max-fold 50", s.Metrics.MaxIntermediate)
	}
	if s.Metrics.ViolationsRowBudget != 1 || s.Metrics.ViolationsAdmission != 2 {
		t.Errorf("violations = %+v, want row_budget=1 admission=2", s.Metrics.ViolationCounts())
	}
	if s.Metrics.ViolationsTotal() != 3 {
		t.Errorf("ViolationsTotal = %d, want 3", s.Metrics.ViolationsTotal())
	}
	if s.Latency.Count != 3 {
		t.Errorf("Latency.Count = %d, want 3 (nil-trace evals still time)", s.Latency.Count)
	}
	if s.PeakRows.Count != 2 {
		t.Errorf("PeakRows.Count = %d, want 2", s.PeakRows.Count)
	}
	// t1's worst ratio is 50/100 = 0.5; t2's is 8/10 = 0.8.
	if s.AGMRatio.Count != 2 {
		t.Errorf("AGMRatio.Count = %d, want 2", s.AGMRatio.Count)
	}
	if got := s.AGMRatio.Sum; math.Abs(got-1.3) > 1e-9 {
		t.Errorf("AGMRatio.Sum = %g, want 1.3", got)
	}
	if s.TracesHeld != 2 {
		t.Errorf("TracesHeld = %d, want 2", s.TracesHeld)
	}
	if got, want := tracesJSON(reg.Traces()...), tracesJSON(t1, t2); got != want {
		t.Errorf("Traces() = %s, want [t1 t2] oldest first: %s", got, want)
	}
}

// tracesJSON renders traces as their JSON, the content /debug/traces and
// the -trace file serve: what a copy of a trace must keep.
func tracesJSON(traces ...*Trace) string {
	b, err := json.Marshal(traces)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func TestRegistryTraceRingBounded(t *testing.T) {
	reg := NewRegistry()
	reg.SetTraceCap(3)
	var want []*Trace
	for i := 0; i < 10; i++ {
		tr := &Trace{Metrics: MetricsSnapshot{Joins: int64(i)}}
		want = append(want, tr)
		reg.Observe(tr, time.Millisecond)
	}
	if got := reg.Traces(); tracesJSON(got...) != tracesJSON(want[7:]...) {
		t.Fatalf("ring holds %s, want the 3 newest traces oldest first", tracesJSON(got...))
	}
	// Shrinking the cap drops oldest first; disabling clears.
	reg.SetTraceCap(1)
	if got := reg.Traces(); tracesJSON(got...) != tracesJSON(want[9]) {
		t.Fatalf("after SetTraceCap(1): %s", tracesJSON(got...))
	}
	reg.SetTraceCap(0)
	if got := reg.Traces(); len(got) != 0 {
		t.Fatalf("after SetTraceCap(0): %d traces retained", len(got))
	}
	reg.Observe(&Trace{}, 0)
	if got := reg.Traces(); len(got) != 0 {
		t.Fatalf("retention disabled but trace stored")
	}
	// Re-enabled, the ring fills and wraps again, oldest first.
	reg.SetTraceCap(2)
	for _, tr := range want[:3] {
		reg.Observe(tr, time.Millisecond)
	}
	if got := reg.Traces(); tracesJSON(got...) != tracesJSON(want[1:3]...) {
		t.Fatalf("re-enabled at cap 2: %s, want traces 1 and 2", tracesJSON(got...))
	}
}

// TestRingKeepsCopies: the ring holds copies of what it is handed, and
// Traces hands out copies of its own, so neither a reused collector nor a
// later Observe changes a trace once it is in or out of the ring.
func TestRingKeepsCopies(t *testing.T) {
	reg := NewRegistry()
	reg.SetTraceCap(3)
	var c Collector
	fill := func(width, rows int) {
		root := c.Start(OpJoin, fmt.Sprint("join", width))
		root.Reserve(width, width)
		root.Begin()
		ins := make([]int, width)
		for i := range ins {
			ins[i] = rows + i
			child := root.Child(OpScan, fmt.Sprint("R", i))
			child.Begin()
			child.Finish(ins[i])
		}
		root.SetInputs(ins)
		root.ObservePeak(rows * width)
		root.Finish(rows)
		c.Metrics.ObserveIntermediate(rows * width)
	}

	// A collector Reset and refilled after Observe leaves the ring as it was.
	fill(4, 10)
	reg.ObserveCollector(&c, time.Millisecond)
	kept := tracesJSON(reg.Traces()...)
	if want := tracesJSON(c.Trace()); kept != want {
		t.Fatalf("ring holds %s, want the collector's trace %s", kept, want)
	}
	c.Reset()
	fill(4, 99)
	if got := tracesJSON(reg.Traces()...); got != kept {
		t.Fatalf("refilling the collector changed the ring:\n got %s\nwant %s", got, kept)
	}

	// A Traces result stays as it was while cap more trees, larger and
	// smaller, are copied over the slots it was taken from.
	for _, width := range []int{2, 5} {
		c.Reset()
		fill(width, width)
		reg.ObserveCollector(&c, time.Millisecond)
	}
	out := reg.Traces()
	before := tracesJSON(out...)
	for _, width := range []int{7, 1, 3} {
		c.Reset()
		fill(width, 1000+width)
		reg.ObserveCollector(&c, time.Millisecond)
	}
	if got := tracesJSON(out...); got != before {
		t.Fatalf("a later Observe wrote into a Traces result:\n got %s\nwant %s", got, before)
	}

	// Resizing the ring keeps each slot's content, oldest first.
	c.Reset()
	fill(6, 6) // wraps the ring, so the oldest slot is not slot 0
	reg.ObserveCollector(&c, time.Millisecond)
	ring := reg.Traces()
	reg.SetTraceCap(5)
	if got, want := tracesJSON(reg.Traces()...), tracesJSON(ring...); got != want {
		t.Fatalf("growing the cap changed the ring:\n got %s\nwant %s", got, want)
	}
	reg.SetTraceCap(2)
	if got, want := tracesJSON(reg.Traces()...), tracesJSON(ring[1:]...); got != want {
		t.Fatalf("shrinking the cap kept %s, want the newest two %s", got, want)
	}
}

// TestReusedCollectorAllocatesNoSpan: a collector Reset between
// evaluations, publishing a φ_G-sized tree (a join over 17 arguments)
// into a full ring, allocates nothing once both have held such a tree.
func TestReusedCollectorAllocatesNoSpan(t *testing.T) {
	const args = 17
	labels := make([]string, args)
	for i := range labels {
		labels[i] = fmt.Sprint("pi[A", i, "](T)")
	}
	ins := make([]int, args)
	reg := NewRegistry()
	var c Collector
	evaluate := func() {
		c.Reset()
		root := c.Start(OpJoin, "join17")
		root.Reserve(args, args)
		root.Begin()
		for i, label := range labels {
			child := root.Child(OpProject, label)
			child.Begin()
			child.Finish(i)
		}
		root.SetInputs(ins)
		root.ObservePeak(4096)
		root.Finish(64)
		reg.ObserveCollector(&c, time.Millisecond)
	}
	for i := 0; i < DefaultTraceCap; i++ {
		evaluate()
	}
	if allocs := testing.AllocsPerRun(100, evaluate); allocs != 0 {
		t.Fatalf("Reset + an 18-span tree + Observe into a full ring: %v allocations, want 0", allocs)
	}
	if got := reg.Traces(); len(got) != DefaultTraceCap || len(got[0].Root().Children) != args {
		t.Fatalf("ring holds %d traces of %d children, want %d of %d", len(got), len(got[0].Root().Children), DefaultTraceCap, args)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines while
// snapshots are being taken, as concurrent relqueryd requests and /metrics
// scrapes do; run under -race by CI. One lock guards the counters and the
// histograms together, so every mid-run snapshot sees each evaluation
// whole: the latency histogram never counts one the evals total has not.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 200
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := reg.Snapshot(); s.Latency.Count != s.Evals {
				t.Errorf("mid-run snapshot: Latency.Count = %d, Evals = %d", s.Latency.Count, s.Evals)
				return
			}
			_ = tracesJSON(reg.Traces()...) // reads every copied span
		}
	}()
	// Resizing the ring while it fills and is read: a trace is never read
	// from a slot an Observe is copying over. The workers' second halves
	// wait for the last resize, so the ring ends full.
	resized := make(chan struct{})
	go func() {
		defer close(resized)
		for i := 0; i < 100; i++ {
			reg.SetTraceCap(1 + i%(2*DefaultTraceCap))
		}
		reg.SetTraceCap(DefaultTraceCap)
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i == perWorker/2 {
					<-resized
				}
				tr := &Trace{
					Roots:   []*Span{{Op: OpJoin, InputRows: []int{w, i}, Children: []*Span{{Op: OpScan}}}},
					Metrics: MetricsSnapshot{Joins: 1, MaxIntermediate: int64(w*perWorker + i)},
				}
				// A power of two, so the float sum is exact in any order.
				reg.Observe(tr, 2*time.Second)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done

	s := reg.Snapshot()
	if s.Evals != workers*perWorker {
		t.Errorf("Evals = %d, want %d", s.Evals, workers*perWorker)
	}
	if s.Metrics.Joins != workers*perWorker {
		t.Errorf("Joins = %d, want %d", s.Metrics.Joins, workers*perWorker)
	}
	if want := int64(workers*perWorker - 1); s.Metrics.MaxIntermediate != want {
		t.Errorf("MaxIntermediate = %d, want %d", s.Metrics.MaxIntermediate, want)
	}
	if s.Latency.Count != workers*perWorker {
		t.Errorf("Latency.Count = %d, want %d", s.Latency.Count, workers*perWorker)
	}
	if s.Latency.Sum != 2*workers*perWorker {
		t.Errorf("Latency.Sum = %g, want %d", s.Latency.Sum, 2*workers*perWorker)
	}
	if b := s.Latency.Buckets; len(b) != 1 || b[0].UpperBound != 2 || b[0].Count != workers*perWorker {
		t.Errorf("Latency.Buckets = %v, want all in le=2", b)
	}
	if s.TracesHeld != DefaultTraceCap {
		t.Errorf("TracesHeld = %d, want the default cap %d", s.TracesHeld, DefaultTraceCap)
	}
}

func TestViolationKindsMatchCounts(t *testing.T) {
	var m Metrics
	for i, kind := range ViolationKinds() {
		for j := 0; j <= i; j++ {
			m.Violation(kind)
		}
	}
	counts := m.Snapshot().ViolationCounts()
	if len(counts) != len(ViolationKinds()) {
		t.Fatalf("ViolationCounts has %d entries, want %d", len(counts), len(ViolationKinds()))
	}
	for i, vc := range counts {
		if vc.Kind != ViolationKinds()[i] {
			t.Errorf("counts[%d].Kind = %q, want %q", i, vc.Kind, ViolationKinds()[i])
		}
		if vc.Count != int64(i+1) {
			t.Errorf("counts[%d] (%s) = %d, want %d", i, vc.Kind, vc.Count, i+1)
		}
	}
	if got, want := m.Snapshot().ViolationsTotal(), int64(1+2+3+4+5); got != want {
		t.Errorf("ViolationsTotal = %d, want %d", got, want)
	}
	// The stats line renders every sentinel.
	line := m.Snapshot().String()
	for i, kind := range ViolationKinds() {
		if want := fmt.Sprintf("viol_%s=%d", kind, i+1); !strings.Contains(line, want) {
			t.Errorf("String() missing %q: %s", want, line)
		}
	}
}
