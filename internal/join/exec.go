package join

import (
	"errors"
	"fmt"

	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// Exec is the execution context of one join: the resource governor its
// hot loops poll, the metrics its counters go to and the span of the join
// node it runs under. It is the first argument of every Algorithm.Join,
// JoinAll and Multi call, passed by value. The zero Exec is ungoverned,
// unmetered and untraced, and costs nil checks only: every use of the
// three pointers is nil-safe, with no allocation or clock read behind a
// nil.
type Exec struct {
	// Gov is ticked at tuple granularity and checked at batch granularity
	// by every strategy, so a canceled context, an expired deadline or a
	// blown budget aborts mid-join with a typed governor sentinel.
	Gov *governor.Governor
	// Metrics receives the per-join counters (tuples built/probed/emitted,
	// semijoins, wcoj and yannakakis effort).
	Metrics *obs.Metrics
	// Span is the join node's trace span: peak materialization, and the
	// structure and search-effort annotations of the n-ary strategies.
	Span *obs.Span
}

// Materialized accounts for one relation a join has just materialized —
// a semijoin result, a generic join's output, a projection: Sized, on a
// relation that exists already because its producer could not count its
// rows before building them. It returns r, or nil and the governor's
// sentinel when a budget is blown.
func (x Exec) Materialized(r *relation.Relation) (*relation.Relation, error) {
	if err := x.Sized(r.Len(), r.Scheme().Len()); err != nil {
		return nil, err
	}
	return r, nil
}

// Sized accounts for one materialized relation of the given cardinality
// and arity: the cardinality is folded into the span's peak, checked
// against the row budget and charged to the memory budget. Every relation
// a strategy builds is accounted for here exactly once; the paper's
// blow-up lives in exactly these intermediates. A count-first producer
// (the hash joins) calls it on the count, before a single row exists, so a
// join over budget dies holding its probe bookkeeping and not a relation;
// the others reach it through Materialized. The in-loop batch checks can
// trail the last partial batch, so this is the authoritative row check.
func (x Exec) Sized(rows, arity int) error {
	x.Span.ObservePeak(rows)
	if x.Gov == nil {
		return nil
	}
	if err := x.Gov.CheckRows(rows); err != nil {
		return err
	}
	// The governor's memory model for one materialized relation: a coarse
	// per-value estimate (string header + small payload) plus per-tuple
	// overhead. Deliberately simple and deterministic — the budget bounds
	// an estimate of cumulative materialization, not RSS.
	const bytesPerValue, bytesPerTuple = 24, 48
	return x.Gov.ChargeBytes(int64(rows) * int64(arity*bytesPerValue+bytesPerTuple))
}

// checkBatch is how many tuples a governed loop processes between
// row-budget checks and fault-injection crossings. Tied to the governor's
// own tick amortization so both checks share the batch boundary.
const checkBatch = governor.CheckEvery

// ErrPanic marks an error recovered from a panic inside a join strategy —
// an engine fault, not a property of the query. Match with errors.Is.
var ErrPanic = errors.New("join: strategy panicked")

// Recovered converts a recovered panic value into an ErrPanic error,
// preserving error payloads (like *fault.InjectedPanic) for errors.As.
func Recovered(what string, rec any) error {
	if err, ok := rec.(error); ok {
		return fmt.Errorf("%w in %s: %w", ErrPanic, what, err)
	}
	return fmt.Errorf("%w in %s: %v", ErrPanic, what, rec)
}
