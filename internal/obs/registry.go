package obs

import (
	"math"
	"sync"
	"sync/atomic"
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

// Histogram is a fixed-size log₂-bucketed histogram with atomic counters:
// concurrent Observe calls from concurrent evaluations need no lock, and a
// Snapshot taken mid-run is race-free. The zero Histogram is ready to
// use; all methods are nil-safe no-ops, per the package's zero-overhead
// contract.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	buckets [histBuckets]atomic.Int64
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

// Observe folds one observation into the histogram. NaN is ignored;
// non-positive values land in the lowest bucket.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns a plain-value copy of the histogram. Like
// Metrics.Snapshot, each field is read atomically; a mid-run snapshot may
// be mutually skewed by in-flight updates. The zero snapshot is returned
// for a nil receiver.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: bucketBound(i), Count: n})
		}
	}
	return s
}

// HistogramSnapshot is a plain-value copy of a Histogram: only non-empty
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
// The zero Registry is ready to use. All methods are nil-safe no-ops, per
// the package's zero-overhead contract: an evaluator with no registry
// attached pays only nil checks.
type Registry struct {
	// latency distributes evaluation wall time, in seconds.
	latency Histogram
	// peakRows distributes each evaluation's largest intermediate
	// cardinality — the paper's blow-up number, per evaluation.
	peakRows Histogram
	// agmRatio distributes each evaluation's worst observed-peak/AGM-bound
	// ratio: how close the workload sits to the theoretical ceiling, and
	// the number that shows whether the AGM-guided selector keeps peaks
	// near the bound across a workload.
	agmRatio Histogram

	mu     sync.Mutex
	evals  int64
	totals MetricsSnapshot
	plans  PlanningSnapshot
	// traces is a circular buffer of the most recent span trees: it grows
	// by append until it reaches the effective cap, after which each new
	// trace overwrites the oldest slot in place — a single store per
	// evaluation, never a reallocation (see BenchmarkRegistryObserveTraceRing).
	traces []*Trace
	// head indexes the oldest retained trace once the buffer is full;
	// while the buffer is still growing it stays 0 (slot 0 is the oldest).
	head     int
	traceCap int // 0 means DefaultTraceCap
}

// NewRegistry returns a Registry with the default trace retention.
func NewRegistry() *Registry { return &Registry{} }

// SetTraceCap bounds the trace ring to the n most recent evaluations
// (n <= 0 disables retention). Existing excess traces are dropped oldest
// first.
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
	ordered := r.orderedLocked()
	if len(ordered) > n {
		ordered = ordered[len(ordered)-n:]
	}
	r.traces, r.head = append([]*Trace(nil), ordered...), 0
}

// orderedLocked returns the retained traces oldest first; callers hold
// r.mu. The returned slice aliases r.traces only when the ring has not
// wrapped (head 0), which every caller immediately copies or replaces.
func (r *Registry) orderedLocked() []*Trace {
	if r.head == 0 {
		return r.traces
	}
	out := make([]*Trace, 0, len(r.traces))
	out = append(out, r.traces[r.head:]...)
	return append(out, r.traces[:r.head]...)
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
// its metrics into the totals, its peak into the distributions, and the
// span tree into the ring. A nil trace still counts the evaluation —
// collector-less evaluations contribute latency only.
func (r *Registry) Observe(t *Trace, wall time.Duration) {
	if r == nil {
		return
	}
	r.latency.Observe(wall.Seconds())
	if t != nil {
		r.peakRows.Observe(float64(t.Metrics.MaxIntermediate))
		if ratio := maxAGMRatio(t.Roots); ratio > 0 {
			r.agmRatio.Observe(ratio)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evals++
	if t == nil {
		return
	}
	r.totals.fold(t.Metrics)
	r.plans.fold(t.Planning)
	switch n := r.ringCap(); {
	case n <= 0:
		// Retention disabled.
	case len(r.traces) < n:
		r.traces = append(r.traces, t)
	default:
		// Full ring: overwrite the oldest slot in place and advance —
		// O(1) per evaluation regardless of the cap.
		r.traces[r.head] = t
		r.head = (r.head + 1) % len(r.traces)
	}
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
	evals, totals, plans, held := r.evals, r.totals, r.plans, len(r.traces)
	r.mu.Unlock()
	return RegistrySnapshot{
		Evals:      evals,
		Metrics:    totals,
		Planning:   plans,
		Latency:    r.latency.Snapshot(),
		PeakRows:   r.peakRows.Snapshot(),
		AGMRatio:   r.agmRatio.Snapshot(),
		TracesHeld: held,
	}
}

// Traces returns the retained span trees, oldest first. The trace
// pointers are shared with past Observe callers, like Collector.Trace.
func (r *Registry) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, len(r.traces))
	copy(out, r.orderedLocked())
	return out
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
