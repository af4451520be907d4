package obs

import (
	"math"
	"sync"
	"time"
)

// histBuckets is the number of log₂ histogram buckets: bucket i holds
// observations v with 2^(i-histZeroExp-1) < v ≤ 2^(i-histZeroExp), so the
// covered range is (2^-33, 2^31] — fine enough for sub-microsecond
// latencies in seconds and wide enough for multi-billion-row peaks. The
// first bucket also absorbs everything at or below its bound (including
// zero), the last everything above.
const (
	histBuckets = 64
	histZeroExp = 32
)

// histogram is a fixed-size log₂-bucketed histogram. Only a Registry
// holds one, and its mutex guards it. The zero histogram is ready to use.
type histogram struct {
	count   int64
	sum     float64
	buckets [histBuckets]int64
}

// bucketIndex maps an observation to its bucket: the smallest i whose
// upper bound 2^(i-histZeroExp) is ≥ v, clamped to the array.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	if frac == 0.5 {
		exp--
	}
	i := exp + histZeroExp
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBound is bucket i's inclusive upper bound.
func bucketBound(i int) float64 { return math.Ldexp(1, i-histZeroExp) }

// observe folds one observation into the histogram. NaN is ignored;
// non-positive values land in the lowest bucket.
func (h *histogram) observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
}

// snapshot returns a plain-value copy of the histogram.
func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	for i, n := range h.buckets {
		if n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: bucketBound(i), Count: n})
		}
	}
	return s
}

// HistogramSnapshot is a plain-value copy of a histogram: only non-empty
// buckets, in increasing upper-bound order, with per-bucket (not
// cumulative) counts. Exporters derive cumulative le-series from it.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
	// Buckets holds the non-empty buckets in increasing bound order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty histogram bucket.
type HistogramBucket struct {
	// UpperBound is the bucket's inclusive upper bound (a power of two).
	UpperBound float64 `json:"le"`
	// Count is the number of observations in this bucket alone.
	Count int64 `json:"count"`
}

// DefaultTraceCap is how many recent evaluation traces a Registry retains
// for the /debug/traces export when no explicit cap is set.
const DefaultTraceCap = 32

// Registry aggregates observability across evaluations: summed metrics
// snapshots, distributions (latency, peak intermediate rows, observed
// peak / AGM bound ratio), and a bounded ring of recent span trees. One
// process-wide Registry backs the telemetry server's /metrics and
// /debug/traces endpoints while per-evaluation Collectors come and go.
//
// Evaluations on many goroutines publish into one Registry, so mu guards
// every field: a Snapshot sees each Observe whole or not at all.
//
// The zero Registry is ready to use. All methods are nil-safe no-ops, per
// the package's zero-overhead contract: an evaluator with no registry
// attached pays only nil checks.
type Registry struct {
	mu sync.Mutex
	// latency distributes evaluation wall time, in seconds.
	latency histogram
	// peakRows distributes each evaluation's largest intermediate
	// cardinality — the paper's blow-up number, per evaluation.
	peakRows histogram
	// agmRatio distributes each evaluation's worst observed-peak/AGM-bound
	// ratio: how close the workload sits to the theoretical ceiling, and
	// the number that shows whether the AGM-guided selector keeps peaks
	// near the bound across a workload.
	agmRatio histogram

	evals  int64
	totals MetricsSnapshot
	plans  PlanningSnapshot
	// traces is a circular buffer of copies of the most recent span trees:
	// it grows by append until it reaches the effective cap, after which
	// each new trace is copied over the oldest slot in place, into the
	// slot's own arena (see BenchmarkRegistryObserveTraceRing).
	traces []traceSlot
	// head indexes the oldest retained trace once the buffer is full;
	// while the buffer is still growing it stays 0 (slot 0 is the oldest).
	head     int
	traceCap int // 0 means DefaultTraceCap
}

// traceSlot is one entry of the trace ring: a copy of a trace whose spans,
// children lists and input cardinalities are carved from the slot's arena,
// which the next copy into the slot reuses.
type traceSlot struct {
	trace Trace
	arena spanArena
}

// NewRegistry returns a Registry with the default trace retention.
func NewRegistry() *Registry { return &Registry{} }

// SetTraceCap bounds the trace ring to the n most recent evaluations
// (n <= 0 disables retention). Existing excess traces are dropped oldest
// first; the rest keep their slots, content and arena alike.
func (r *Registry) SetTraceCap(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 {
		r.traceCap = -1
		r.traces, r.head = nil, 0
		return
	}
	r.traceCap = n
	// Rebuild the ring in oldest-first order, trimmed to the new cap.
	// Resizing is a rare operator action; Observe never pays this copy.
	keep := min(len(r.traces), n)
	ring := make([]traceSlot, keep)
	for i := range ring {
		ring[i] = *r.slotLocked(len(r.traces) - keep + i)
	}
	r.traces, r.head = ring, 0
}

// slotLocked returns the i-th oldest retained trace's slot; callers hold
// r.mu.
func (r *Registry) slotLocked(i int) *traceSlot {
	return &r.traces[(r.head+i)%len(r.traces)]
}

// ringCap resolves the effective ring capacity; callers hold r.mu.
func (r *Registry) ringCap() int {
	switch {
	case r.traceCap < 0:
		return 0
	case r.traceCap == 0:
		return DefaultTraceCap
	default:
		return r.traceCap
	}
}

// Observe folds one finished (or aborted) evaluation into the registry:
// wall time into the latency histogram and, when a trace was collected,
// its metrics into the totals, its peak into the distributions, and a
// copy of the span tree into the ring. The registry keeps nothing of t,
// so the caller may reuse what t points into once Observe returns. A nil
// trace still counts the evaluation — collector-less evaluations
// contribute latency only.
func (r *Registry) Observe(t *Trace, wall time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evals++
	r.latency.observe(wall.Seconds())
	if t == nil {
		return
	}
	r.peakRows.observe(float64(t.Metrics.MaxIntermediate))
	if ratio := maxAGMRatio(t.Roots); ratio > 0 {
		r.agmRatio.observe(ratio)
	}
	r.totals.fold(t.Metrics)
	r.plans.fold(t.Planning)
	var slot *traceSlot
	switch n := r.ringCap(); {
	case n <= 0:
		return // retention disabled
	case len(r.traces) < n:
		r.traces = append(r.traces, traceSlot{})
		slot = &r.traces[len(r.traces)-1]
	default:
		// Full ring: copy over the oldest slot in place and advance —
		// O(1) in the cap, and nothing allocated once the slot's arena
		// has held a tree as large.
		slot = &r.traces[r.head]
		r.head = (r.head + 1) % len(r.traces)
	}
	slot.arena.copyTrace(&slot.trace, t)
}

// ObserveCollector is Observe of the trace c has collected so far, read in
// place: the ring copies it, so c may be Reset once this returns. A nil
// collector counts the evaluation's latency only.
func (r *Registry) ObserveCollector(c *Collector, wall time.Duration) {
	if r == nil {
		return
	}
	if c == nil {
		r.Observe(nil, wall)
		return
	}
	t := c.view()
	r.Observe(&t, wall)
}

// maxAGMRatio walks span trees and returns the largest ratio of a join
// span's observed peak (its own output or an intermediate binary join
// inside it) to its AGM bound, or 0 when no span carries a bound.
func maxAGMRatio(roots []*Span) float64 {
	best := 0.0
	var walk func(sp *Span)
	walk = func(sp *Span) {
		if sp == nil {
			return
		}
		if sp.AGMBound > 0 {
			observed := sp.OutputRows
			if sp.MaxIntermediate > observed {
				observed = sp.MaxIntermediate
			}
			if ratio := float64(observed) / sp.AGMBound; ratio > best {
				best = ratio
			}
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, root := range roots {
		walk(root)
	}
	return best
}

// Snapshot returns a plain-value copy of the registry's aggregates. The
// zero snapshot is returned for a nil receiver.
func (r *Registry) Snapshot() RegistrySnapshot {
	if r == nil {
		return RegistrySnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistrySnapshot{
		Evals:      r.evals,
		Metrics:    r.totals,
		Planning:   r.plans,
		Latency:    r.latency.snapshot(),
		PeakRows:   r.peakRows.snapshot(),
		AGMRatio:   r.agmRatio.snapshot(),
		TracesHeld: len(r.traces),
	}
}

// Traces returns copies of the retained span trees, oldest first, taken
// under the lock: no later Observe writes into them.
func (r *Registry) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	copies := make([]Trace, len(r.traces))
	out := make([]*Trace, len(r.traces))
	for i := range out {
		var a spanArena
		a.copyTrace(&copies[i], &r.slotLocked(i).trace)
		out[i] = &copies[i]
	}
	return out
}

// spanArena is the storage a copied span tree is carved from: its spans,
// its children lists (the root list among them) and its input
// cardinalities.
type spanArena struct {
	spans []Span
	kids  []*Span
	rows  []int
}

// copyTrace copies t into dst, the span tree deep, carving it from the
// arena, which grows first if the tree does not fit.
func (a *spanArena) copyTrace(dst, t *Trace) {
	var n treeSize
	n.count(t.Roots)
	if len(a.spans) < n.spans {
		a.spans = make([]Span, n.spans)
	}
	if len(a.kids) < n.kids {
		a.kids = make([]*Span, n.kids)
	}
	if len(a.rows) < n.rows {
		a.rows = make([]int, n.rows)
	}
	clear(a.spans[n.spans:]) // a larger tree's spans, no longer used
	free := *a
	dst.Roots = free.list(t.Roots)
	dst.Metrics, dst.Planning = t.Metrics, t.Planning
}

// treeSize is what a copy of a span tree takes of an arena.
type treeSize struct{ spans, kids, rows int }

// count adds what a copy of the span list l takes.
func (n *treeSize) count(l []*Span) {
	n.kids += len(l)
	for _, s := range l {
		if s != nil {
			n.spans++
			n.rows += len(s.InputRows)
			n.count(s.Children)
		}
	}
}

// list copies the span list l out of the arena's free room. A nil list
// stays nil and an empty one empty: a root list encodes as null or [].
func (a *spanArena) list(l []*Span) []*Span {
	if l == nil {
		return nil
	}
	if len(l) == 0 {
		return []*Span{}
	}
	out := a.kids[:len(l):len(l)]
	a.kids = a.kids[len(l):]
	for i, s := range l {
		out[i] = a.span(s)
	}
	return out
}

// span copies one span and its subtree out of the arena's free room.
func (a *spanArena) span(src *Span) *Span {
	if src == nil {
		return nil
	}
	s := &a.spans[0]
	a.spans = a.spans[1:]
	*s = *src
	s.start, s.c = time.Time{}, nil
	switch n := len(src.InputRows); {
	case n > 0:
		s.InputRows, a.rows = a.rows[:n:n], a.rows[n:]
		copy(s.InputRows, src.InputRows)
	case src.InputRows != nil:
		s.InputRows = []int{}
	}
	s.Children = a.list(src.Children)
	return s
}

// RegistrySnapshot is a plain-value copy of a Registry, ready for JSON
// encoding or Prometheus exposition.
type RegistrySnapshot struct {
	// Evals counts the evaluations observed.
	Evals int64 `json:"evals"`
	// Metrics holds the counters summed across evaluations
	// (MaxIntermediate is the maximum, not a sum).
	Metrics MetricsSnapshot `json:"metrics"`
	// Planning holds the planning counters summed across evaluations.
	Planning PlanningSnapshot `json:"planning"`
	// Latency distributes evaluation wall time, in seconds.
	Latency HistogramSnapshot `json:"latency_seconds"`
	// PeakRows distributes each evaluation's largest intermediate
	// cardinality.
	PeakRows HistogramSnapshot `json:"peak_intermediate_rows"`
	// AGMRatio distributes each evaluation's worst observed-peak/AGM-bound
	// ratio.
	AGMRatio HistogramSnapshot `json:"peak_agm_ratio"`
	// TracesHeld is the number of span trees currently retained for
	// /debug/traces.
	TracesHeld int `json:"traces_held"`
}
