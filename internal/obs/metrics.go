// Package obs is the query-evaluation observability layer: per-evaluation
// metrics counters and a span tree tracing every operator of a
// project–join evaluation.
//
// The package exists because the paper's central phenomenon — intermediate
// results exponentially larger than input and output (Cosmadakis 1983,
// Introduction) — is invisible from a query's result alone. A Collector
// attached to an algebra.Evaluator records, per operator, the observed
// cardinalities, wall time, join algorithm and cache status, and
// accumulates evaluation-wide counters (tuples built/probed/emitted,
// semijoins, wcoj and yannakakis effort, cache hits/misses).
// algebra.ExplainAnalyze renders the span tree; cmd/relquery -trace emits
// it as JSON.
//
// # Zero-overhead contract
//
// Every method in this package is safe to call on a nil receiver and does
// nothing there. Instrumented code therefore needs no conditionals: it
// threads a possibly-nil *Collector (or *Span, or *Metrics) through and
// calls methods unconditionally. With no collector attached the entire
// layer reduces to nil checks — no allocation, no clock reads — which is
// what keeps the instrumented engine within noise of the uninstrumented
// one (see BenchmarkE9Eval and BENCH_obs.txt).
//
// # Ownership
//
// An evaluation runs on one goroutine, and a Collector, its Metrics and
// its span tree belong to that goroutine: they are plain fields with no
// lock, read once the evaluation is over (Collector.Trace). The Registry
// is the one value shared across evaluations, and its one mutex guards
// all of it.
//
// obs sits below every engine package: it imports only the standard
// library, so internal/join, internal/algebra and internal/decide can all
// report into it without cycles.
package obs

import "fmt"

// Metrics accumulates evaluation-wide counters. It is written by the
// goroutine running the evaluation and read when that evaluation is done.
//
// All methods are nil-safe no-ops, per the package's zero-overhead
// contract.
type Metrics struct {
	counts MetricsSnapshot
	plans  PlanningSnapshot
}

// Governor-violation kinds, one per sentinel in internal/governor. The
// strings double as the Prometheus label values of
// relquery_governor_violations_total. They live here — not in
// internal/governor — because governor imports obs, never the reverse.
const (
	ViolationDeadline  = "deadline"
	ViolationCanceled  = "canceled"
	ViolationRowBudget = "row_budget"
	ViolationMemBudget = "mem_budget"
	ViolationAdmission = "admission"
)

// ViolationKinds lists every violation kind in exposition order, so
// exporters emit a stable, complete set of series even when all counts
// are zero.
func ViolationKinds() []string {
	return []string{ViolationDeadline, ViolationCanceled, ViolationRowBudget, ViolationMemBudget, ViolationAdmission}
}

// Violation records one governance violation of the given kind (a
// Violation* constant). The governor calls it exactly once per
// evaluation — when its sticky failure latch first trips — so the
// counters read as "evaluations killed, by sentinel". Unknown kinds are
// ignored: a kind names a governor sentinel, and any other error is not
// a violation.
func (m *Metrics) Violation(kind string) {
	if m == nil {
		return
	}
	switch kind {
	case ViolationDeadline:
		m.counts.ViolationsDeadline++
	case ViolationCanceled:
		m.counts.ViolationsCanceled++
	case ViolationRowBudget:
		m.counts.ViolationsRowBudget++
	case ViolationMemBudget:
		m.counts.ViolationsMemBudget++
	case ViolationAdmission:
		m.counts.ViolationsAdmission++
	}
}

// ObserveJoin records one binary join producing out tuples: it counts the
// join and folds the output size into the intermediate-result statistics.
func (m *Metrics) ObserveJoin(out int) {
	if m == nil {
		return
	}
	m.counts.Joins++
	m.observeIntermediate(out)
}

// ObserveIntermediate folds an intermediate relation's cardinality (a
// projection output, or a join node's passthrough input) into
// MaxIntermediate and IntermediateTuples without counting a join.
func (m *Metrics) ObserveIntermediate(rows int) {
	if m == nil {
		return
	}
	m.observeIntermediate(rows)
}

func (m *Metrics) observeIntermediate(rows int) {
	n := int64(rows)
	m.counts.IntermediateTuples += n
	m.counts.MaxIntermediate = max(m.counts.MaxIntermediate, n)
}

// JoinWork records one binary join's tuple traffic: built and probed are
// the hash join's build-side and probe-side rows, emitted is the output
// cardinality.
func (m *Metrics) JoinWork(built, probed, emitted int) {
	if m == nil {
		return
	}
	m.counts.TuplesBuilt += int64(built)
	m.counts.TuplesProbed += int64(probed)
	m.counts.TuplesEmitted += int64(emitted)
}

// WCOJ records one worst-case-optimal generic join with its search
// counters: candidate values enumerated and attribute intersections
// performed.
func (m *Metrics) WCOJ(candidates, intersections int) {
	if m == nil {
		return
	}
	m.counts.WCOJJoins++
	m.counts.WCOJCandidates += int64(candidates)
	m.counts.WCOJIntersections += int64(intersections)
}

// Semijoin records one semijoin pass producing out tuples (the full
// reducer's sweeps and the pairwise reductions of Yannakakis' binary
// joins report here).
func (m *Metrics) Semijoin(out int) {
	if m == nil {
		return
	}
	m.counts.Semijoins++
	m.counts.SemijoinRows += int64(out)
}

// Yannakakis records one acyclic n-ary join evaluated by the full
// reducer. Per-pass semijoin counts arrive separately via Semijoin.
func (m *Metrics) Yannakakis() {
	if m == nil {
		return
	}
	m.counts.YannakakisJoins++
}

// Degraded records one graceful degradation: a wcoj or yannakakis join
// node failed (engine error or recovered panic) and was retried on the
// greedy binary path.
func (m *Metrics) Degraded() {
	if m == nil {
		return
	}
	m.counts.DegradedEvals++
}

// CacheHit records a subexpression served from the evaluation's cache
// without re-evaluation.
func (m *Metrics) CacheHit() {
	if m == nil {
		return
	}
	m.counts.CacheHits++
}

// CacheMiss records a subexpression that had to be evaluated.
func (m *Metrics) CacheMiss() {
	if m == nil {
		return
	}
	m.counts.CacheMisses++
}

// CacheInvalidated records n cache entries dropped (shared-cache reset or
// fingerprint change).
func (m *Metrics) CacheInvalidated(n int) {
	if m == nil {
		return
	}
	m.counts.CacheInvalidations += int64(n)
}

// PlanFacts records one join node taking its plan from a facts store: a
// hit when the store already held the node's facts, whatever of them had
// been computed.
func (m *Metrics) PlanFacts(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.plans.FactsHits++
	} else {
		m.plans.FactsMisses++
	}
}

// CoverLPSolved records n fractional edge cover LPs solved while planning
// join nodes: a node's n-ary LP and one per greedy accumulator of its
// simulation.
func (m *Metrics) CoverLPSolved(n int) {
	if m == nil {
		return
	}
	m.plans.CoverLPSolves += int64(n)
}

// Planning returns a copy of the planning counters, the zero snapshot for
// a nil receiver. They are kept apart from MetricsSnapshot, which
// describes what an evaluation did to the data and is the same whether or
// not the plan was already known.
func (m *Metrics) Planning() PlanningSnapshot {
	if m == nil {
		return PlanningSnapshot{}
	}
	return m.plans
}

// PlanningSnapshot is a plain-value copy of a Metrics' planning counters.
type PlanningSnapshot struct {
	// FactsHits counts join nodes whose planning facts a store already
	// held; FactsMisses those it held nothing for.
	FactsHits   int64 `json:"facts_hits"`
	FactsMisses int64 `json:"facts_misses"`
	// CoverLPSolves counts the fractional edge cover LPs solved.
	CoverLPSolves int64 `json:"cover_lp_solves"`
}

func (s *PlanningSnapshot) fold(o PlanningSnapshot) {
	s.FactsHits += o.FactsHits
	s.FactsMisses += o.FactsMisses
	s.CoverLPSolves += o.CoverLPSolves
}

// Snapshot returns a copy of the counters, the zero snapshot for a nil
// receiver.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return m.counts
}

// MetricsSnapshot is a plain-value copy of a Metrics' counters, ready for
// JSON encoding or printing.
type MetricsSnapshot struct {
	// Joins is the number of binary joins performed.
	Joins int64 `json:"joins"`
	// MaxIntermediate is the largest cardinality of any intermediate
	// relation produced (including the final result) — the paper's
	// headline number.
	MaxIntermediate int64 `json:"max_intermediate"`
	// IntermediateTuples totals the cardinalities of all intermediate
	// results.
	IntermediateTuples int64 `json:"intermediate_tuples"`
	// TuplesBuilt counts rows inserted into build-side structures.
	TuplesBuilt int64 `json:"tuples_built"`
	// TuplesProbed counts rows scanned against build-side structures.
	TuplesProbed int64 `json:"tuples_probed"`
	// TuplesEmitted counts rows emitted by binary joins.
	TuplesEmitted int64 `json:"tuples_emitted"`
	// WCOJJoins counts n-ary joins run by the worst-case-optimal generic
	// join.
	WCOJJoins int64 `json:"wcoj_joins"`
	// WCOJCandidates totals the candidate attribute values the generic
	// join enumerated.
	WCOJCandidates int64 `json:"wcoj_candidates"`
	// WCOJIntersections totals the attribute-level intersection passes
	// the generic join performed.
	WCOJIntersections int64 `json:"wcoj_intersections"`
	// YannakakisJoins counts n-ary joins evaluated by the Yannakakis
	// full reducer over an acyclic join tree.
	YannakakisJoins int64 `json:"yannakakis_joins"`
	// Semijoins counts semijoin passes (full-reducer sweeps and the
	// pairwise reductions of Yannakakis' binary joins).
	Semijoins int64 `json:"semijoins"`
	// SemijoinRows totals the output cardinalities of all semijoin
	// passes — the per-pass cardinality trail of the full reducer.
	SemijoinRows int64 `json:"semijoin_rows"`
	// DegradedEvals counts join nodes whose wcoj/yannakakis strategy
	// failed and was retried on the greedy binary path.
	DegradedEvals int64 `json:"degraded_evals"`
	// ViolationsDeadline counts evaluations killed by the wall-clock
	// deadline (governor.ErrDeadline).
	ViolationsDeadline int64 `json:"violations_deadline"`
	// ViolationsCanceled counts evaluations killed by context
	// cancellation (governor.ErrCanceled).
	ViolationsCanceled int64 `json:"violations_canceled"`
	// ViolationsRowBudget counts evaluations killed by the row budget
	// (governor.ErrRowBudget — intermediate or final-result cap).
	ViolationsRowBudget int64 `json:"violations_row_budget"`
	// ViolationsMemBudget counts evaluations killed by the estimated
	// memory budget (governor.ErrMemBudget).
	ViolationsMemBudget int64 `json:"violations_mem_budget"`
	// ViolationsAdmission counts evaluations rejected pre-flight by
	// admission control (governor.ErrAdmission).
	ViolationsAdmission int64 `json:"violations_admission"`
	// CacheHits counts subexpressions served from a cache.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts subexpressions that were evaluated.
	CacheMisses int64 `json:"cache_misses"`
	// CacheInvalidations counts cache entries dropped.
	CacheInvalidations int64 `json:"cache_invalidations"`
}

// ViolationCount is one (kind, count) pair of the governor-violation
// counters, for exporters and footers that enumerate them.
type ViolationCount struct {
	// Kind is a Violation* constant.
	Kind string
	// Count is how many evaluations died on that sentinel.
	Count int64
}

// ViolationCounts returns the violation counters in the ViolationKinds
// order, including zero counts.
func (s MetricsSnapshot) ViolationCounts() []ViolationCount {
	return []ViolationCount{
		{ViolationDeadline, s.ViolationsDeadline},
		{ViolationCanceled, s.ViolationsCanceled},
		{ViolationRowBudget, s.ViolationsRowBudget},
		{ViolationMemBudget, s.ViolationsMemBudget},
		{ViolationAdmission, s.ViolationsAdmission},
	}
}

// ViolationsTotal sums the violation counters across sentinels.
func (s MetricsSnapshot) ViolationsTotal() int64 {
	return s.ViolationsDeadline + s.ViolationsCanceled + s.ViolationsRowBudget +
		s.ViolationsMemBudget + s.ViolationsAdmission
}

// fold accumulates another snapshot into s: counters add, the peak
// intermediate takes the maximum. It is the Registry's cross-evaluation
// aggregation step.
func (s *MetricsSnapshot) fold(o MetricsSnapshot) {
	s.MaxIntermediate = max(s.MaxIntermediate, o.MaxIntermediate)
	s.Joins += o.Joins
	s.IntermediateTuples += o.IntermediateTuples
	s.TuplesBuilt += o.TuplesBuilt
	s.TuplesProbed += o.TuplesProbed
	s.TuplesEmitted += o.TuplesEmitted
	s.WCOJJoins += o.WCOJJoins
	s.WCOJCandidates += o.WCOJCandidates
	s.WCOJIntersections += o.WCOJIntersections
	s.YannakakisJoins += o.YannakakisJoins
	s.Semijoins += o.Semijoins
	s.SemijoinRows += o.SemijoinRows
	s.DegradedEvals += o.DegradedEvals
	s.ViolationsDeadline += o.ViolationsDeadline
	s.ViolationsCanceled += o.ViolationsCanceled
	s.ViolationsRowBudget += o.ViolationsRowBudget
	s.ViolationsMemBudget += o.ViolationsMemBudget
	s.ViolationsAdmission += o.ViolationsAdmission
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheInvalidations += o.CacheInvalidations
}

// String renders the snapshot as a single stats line.
func (s MetricsSnapshot) String() string {
	return fmt.Sprintf(
		"joins=%d "+FieldMaxIntermediate+"=%d intermediate_tuples=%d "+
			"built=%d probed=%d emitted=%d "+
			"wcoj=%d wcoj_candidates=%d wcoj_intersections=%d "+
			"yannakakis=%d "+FieldSemijoins+"=%d semijoin_rows=%d "+FieldDegraded+"=%d "+
			"viol_deadline=%d viol_canceled=%d viol_row_budget=%d viol_mem_budget=%d viol_admission=%d "+
			"cache_hits=%d cache_misses=%d cache_invalidations=%d",
		s.Joins, s.MaxIntermediate, s.IntermediateTuples,
		s.TuplesBuilt, s.TuplesProbed, s.TuplesEmitted,
		s.WCOJJoins, s.WCOJCandidates, s.WCOJIntersections,
		s.YannakakisJoins, s.Semijoins, s.SemijoinRows, s.DegradedEvals,
		s.ViolationsDeadline, s.ViolationsCanceled, s.ViolationsRowBudget,
		s.ViolationsMemBudget, s.ViolationsAdmission,
		s.CacheHits, s.CacheMisses, s.CacheInvalidations)
}
