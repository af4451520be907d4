// Package governor is the resource-governance layer of the query engine:
// context-aware cancellation, deadlines, row and memory budgets, and
// pre-flight admission control, shared by every evaluation strategy.
//
// The package exists because the paper proves that query evaluation can
// blow up super-polynomially with no warning (Cosmadakis 1983, Lemma 1),
// and the repo already computes the warning signs — the AGM bound and
// the greedy plan's predicted peak of every join node (join.Plan) and the
// decide budget — but, before this package, nothing could stop an
// evaluation once started. A Governor threads a context.Context and a
// Limits through the whole stack; every join strategy checks it
// cooperatively at tuple-batch granularity, so a runaway evaluation dies
// with a typed, errors.Is-able sentinel instead of running to completion
// or OOM.
//
// Atserias–Grohe–Marx size bounds are the principled basis for the
// admission-control half: when a join node's predicted greedy peak,
// capped by AGM bounds, already exceeds the intermediate-row budget, the
// node is rejected before it runs (ErrAdmission) rather than killed
// after the fact.
//
// # Zero-overhead contract
//
// Mirroring internal/obs: every method is safe to call on a nil
// *Governor and does nothing there. Ungoverned evaluation threads a nil
// governor and the entire layer reduces to nil checks — no clock reads.
// A live governor amortizes its clock reads over CheckEvery ticks, so a
// governed hot loop pays an increment and a compare per tuple.
//
// # Ownership
//
// A Governor belongs to one evaluation, and an evaluation runs on one
// goroutine: the engine starts none. Its counters and its sticky failure
// are plain fields. Work two evaluations share keeps each on its own
// governor: a compute-once waiter blocks in Wait on its own, and
// concurrent first builders of a shared access path each tick their own.
//
// governor sits below every engine package: it imports only the standard
// library and internal/obs (for the partial span tree a Violation
// carries), so internal/join, internal/algebra, internal/decide and
// internal/sat can all consult it without cycles.
package governor

import (
	"context"
	"errors"
	"fmt"
	"time"

	"relquery/internal/obs"
)

// Sentinel errors. Every governance violation arrives wrapped (via
// fmt.Errorf("%w: ...") or a *Violation), so callers must match with
// errors.Is, never ==; the errwrapcheck analyzer enforces this.
var (
	// ErrDeadline reports that the evaluation's wall-clock deadline
	// (Limits.Deadline or the context's own deadline) passed.
	ErrDeadline = errors.New("governor: deadline exceeded")
	// ErrCanceled reports that the evaluation's context was canceled.
	ErrCanceled = errors.New("governor: evaluation canceled")
	// ErrRowBudget reports that a materialized relation exceeded
	// Limits.MaxIntermediateRows, or the final result exceeded
	// Limits.MaxRows.
	ErrRowBudget = errors.New("governor: row budget exceeded")
	// ErrMemBudget reports that the evaluation's estimated resident bytes
	// exceeded Limits.MaxMemoryBytes.
	ErrMemBudget = errors.New("governor: memory budget exceeded")
	// ErrAdmission reports a pre-flight rejection: the AGM bound or the
	// predicted greedy peak of a join node already exceeds the
	// intermediate-row budget, so the join was refused before running.
	ErrAdmission = errors.New("governor: admission denied")
)

// Limits bounds one evaluation. The zero Limits is unlimited.
type Limits struct {
	// Deadline is the wall-clock budget for the whole evaluation,
	// measured from New. Zero means no deadline (the context's own
	// deadline, if any, still applies).
	Deadline time.Duration
	// MaxRows, when positive, caps the final result cardinality.
	MaxRows int
	// MaxIntermediateRows, when positive, caps the cardinality of every
	// materialized intermediate relation — the guard rail against the
	// paper's exponential blow-up, and the threshold admission control
	// compares predictions against.
	MaxIntermediateRows int
	// MaxMemoryBytes, when positive, caps the evaluation's estimated
	// cumulative materialized bytes (a scheme-width model, not a
	// measured RSS; see Governor.ChargeBytes).
	MaxMemoryBytes int64
}

// Enabled reports whether any limit is set.
func (l Limits) Enabled() bool {
	return l.Deadline > 0 || l.MaxRows > 0 || l.MaxIntermediateRows > 0 || l.MaxMemoryBytes > 0
}

// CheckEvery is the tick granularity: a governed loop calls Tick once
// per tuple (or unit of work), and the governor performs the real
// context/deadline check every CheckEvery-th tick. The value trades
// cancellation latency (at most CheckEvery tuples of extra work) against
// per-tuple overhead (an increment and a compare).
const CheckEvery = 256

// Governor carries one evaluation's context and limits through the
// engine. Violations are sticky — once any checkpoint trips, every
// subsequent checkpoint returns the same error.
//
// One evaluation, one goroutine: a Governor is used only by the goroutine
// running the evaluation it was made for, so its state needs no
// synchronization. Never hand one to another goroutine.
//
// The nil *Governor is the ungoverned evaluation: every method no-ops.
type Governor struct {
	ctx      context.Context
	limits   Limits
	deadline time.Time // zero when no deadline applies

	// metrics, when non-nil, receives one Violation count — keyed by the
	// sentinel that tripped — when the sticky failure latch first trips.
	metrics *obs.Metrics

	ticks int64
	bytes int64
	// failure is the first violation, once tripped.
	failure error
}

// New returns a Governor enforcing limits under ctx. A nil result is
// returned when ctx is context.Background() (or nil) and no limit is
// set, so ungoverned callers stay on the zero-overhead path.
func New(ctx context.Context, limits Limits) *Governor {
	if !governed(ctx, limits) {
		return nil
	}
	return new(Governor).Reset(ctx, limits)
}

// governed reports whether an evaluation under ctx and limits needs a
// governor: a limit is set or ctx can end.
func governed(ctx context.Context, limits Limits) bool {
	return limits.Enabled() || ctx != nil && ctx.Done() != nil
}

// Reset makes g, in place, the governor New(ctx, limits) returns, with
// nothing of an earlier evaluation's left, and returns it — or returns nil
// where New does, leaving g as it was. A caller that evaluates once per
// request keeps one Governor and resets it per request. A nil g is New's.
func (g *Governor) Reset(ctx context.Context, limits Limits) *Governor {
	if g == nil {
		return New(ctx, limits)
	}
	if !governed(ctx, limits) {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	*g = Governor{ctx: ctx, limits: limits}
	if limits.Deadline > 0 {
		g.deadline = time.Now().Add(limits.Deadline)
	}
	if d, ok := ctx.Deadline(); ok && (g.deadline.IsZero() || d.Before(g.deadline)) {
		g.deadline = d
	}
	return g
}

// Limits returns the governor's limits (the zero Limits for nil).
func (g *Governor) Limits() Limits {
	if g == nil {
		return Limits{}
	}
	return g.limits
}

// WithMetrics attaches an obs.Metrics to the governor: when the sticky
// failure latch first trips on a governance sentinel, the matching
// violation counter is incremented — exactly once per evaluation, so the
// counters read as "evaluations killed, by sentinel" and an admission
// rejection is as visible as a mid-flight kill. A nil governor or nil
// metrics passes through unchanged, preserving the zero-overhead path.
// WithMetrics returns its receiver for call chaining.
func (g *Governor) WithMetrics(m *obs.Metrics) *Governor {
	if g == nil || m == nil {
		return g
	}
	g.metrics = m
	return g
}

// violationKind maps a violation chain to its obs counter kind, or ""
// for an error that is not a governance sentinel.
func violationKind(err error) string {
	switch {
	case errors.Is(err, ErrDeadline):
		return obs.ViolationDeadline
	case errors.Is(err, ErrCanceled):
		return obs.ViolationCanceled
	case errors.Is(err, ErrRowBudget):
		return obs.ViolationRowBudget
	case errors.Is(err, ErrMemBudget):
		return obs.ViolationMemBudget
	case errors.Is(err, ErrAdmission):
		return obs.ViolationAdmission
	default:
		return ""
	}
}

// fail records err as the sticky violation (the first error wins), counts
// it into the attached metrics, and returns the violation in effect.
func (g *Governor) fail(err error) error {
	if g.failure != nil {
		return g.failure
	}
	g.failure = err
	if kind := violationKind(err); kind != "" {
		g.metrics.Violation(kind)
	}
	return err
}

// Tick is the per-tuple cooperative checkpoint: it counts one unit of
// work and, every CheckEvery-th call, performs the full
// cancellation/deadline check. Hot loops call it unconditionally —
// the nil receiver returns nil immediately.
func (g *Governor) Tick() error {
	if g == nil {
		return nil
	}
	g.ticks++
	if g.ticks%CheckEvery != 0 {
		return g.failure
	}
	return g.Check()
}

// Check performs the full checkpoint immediately: sticky violation,
// context cancellation, then deadline. Engines call it at coarse
// boundaries (between binary joins, per semijoin sweep); hot loops use
// Tick.
func (g *Governor) Check() error {
	if g == nil {
		return nil
	}
	if g.failure != nil {
		return g.failure
	}
	if err := g.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return g.fail(fmt.Errorf("%w: context deadline passed", ErrDeadline))
		}
		return g.fail(fmt.Errorf("%w: %w", ErrCanceled, context.Cause(g.ctx)))
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return g.expired()
	}
	return nil
}

func (g *Governor) expired() error {
	return g.fail(fmt.Errorf("%w: evaluation ran past %v budget", ErrDeadline, g.limits.Deadline))
}

// Wait blocks until done is closed or this evaluation's own context or
// deadline ends, whichever comes first, and returns the violation in the
// latter case. It is how an evaluation waits on work another evaluation is
// doing (a compute-once store's in-flight entry): the other side's limits
// are not this side's. A nil governor just waits; work already done costs
// no timer.
func (g *Governor) Wait(done <-chan struct{}) error {
	if g == nil {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	default:
	}
	var timeout <-chan time.Time
	if !g.deadline.IsZero() {
		t := time.NewTimer(time.Until(g.deadline))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-done:
		return nil
	case <-g.ctx.Done():
		return g.Check()
	case <-timeout:
		return g.expired()
	}
}

// CheckRows enforces MaxIntermediateRows against one materialized
// intermediate relation's cardinality.
func (g *Governor) CheckRows(rows int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxIntermediateRows; max > 0 && rows > max {
		return g.fail(fmt.Errorf("%w: intermediate relation has %d rows > budget %d", ErrRowBudget, rows, max))
	}
	return nil
}

// CheckOutput enforces MaxRows against the final result cardinality.
func (g *Governor) CheckOutput(rows int) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxRows; max > 0 && rows > max {
		return g.fail(fmt.Errorf("%w: result has %d rows > -max-rows %d", ErrRowBudget, rows, max))
	}
	return nil
}

// ChargeBytes adds an allocation estimate to the evaluation's memory
// account and enforces MaxMemoryBytes. The account only grows — the
// engine materializes set-semantics relations whose lifetime the
// governor cannot see, so the model is cumulative bytes materialized, a
// conservative (over-)estimate of peak residency.
func (g *Governor) ChargeBytes(n int64) error {
	if g == nil || n <= 0 {
		return nil
	}
	g.bytes += n
	if max := g.limits.MaxMemoryBytes; max > 0 && g.bytes > max {
		return g.fail(fmt.Errorf("%w: ≈%d bytes materialized > budget %d", ErrMemBudget, g.bytes, max))
	}
	return nil
}

// Prediction is what admission control asks of a join node's plan
// (*join.Plan; the governor sits below the join package). Both numbers
// are computed when first asked for: Admit asks for the peak, and for the
// bound only to report a rejection.
type Prediction interface {
	// AGMBound is the node's n-ary AGM output bound, 0 when it has none.
	AGMBound() float64
	// Peak is the greedy binary plan's predicted peak intermediate: the
	// larger of the statistics estimate and the worst-case greedy AGM
	// peak. Computing it scans every input row.
	Peak() float64
}

// Admit is the pre-flight admission gate for one join node bound for the
// greedy binary planner: it rejects — before any join work runs — when
// the node's predicted peak intermediate exceeds MaxIntermediateRows.
// With no MaxIntermediateRows, admission always passes and asks for
// nothing. A rejection is an *AdmissionError.
func (g *Governor) Admit(p Prediction) error {
	if g == nil {
		return nil
	}
	max := g.limits.MaxIntermediateRows
	if max <= 0 {
		return nil
	}
	peak := p.Peak()
	if peak <= float64(max) {
		return nil
	}
	return g.fail(&AdmissionError{PredictedPeak: peak, AGMBound: p.AGMBound(), Budget: max})
}

// AdmissionError is an ErrAdmission rejection carrying the numbers it was
// decided on, for callers that report them (relqueryd's 429 body).
// errors.Is(err, ErrAdmission) sees through it.
type AdmissionError struct {
	// PredictedPeak is the rejected plan's predicted peak intermediate and
	// AGMBound its n-ary AGM bound, both in rows.
	PredictedPeak, AGMBound float64
	// Budget is the intermediate-row budget the peak exceeded.
	Budget int
}

// Error implements error.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("%v: predicted peak intermediate ≈%.0f rows > budget %d", ErrAdmission, e.PredictedPeak, e.Budget)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *AdmissionError) Unwrap() error { return ErrAdmission }

// Violation is a governance failure annotated with the partial obs span
// tree at the time of death, so EXPLAIN ANALYZE can render where the
// budget died. It wraps (never replaces) the sentinel chain: errors.Is
// against the Err* sentinels sees through it.
type Violation struct {
	// Err is the wrapped violation chain containing one of the package
	// sentinels.
	Err error
	// Trace is the partial span tree + metrics captured when evaluation
	// died (nil when no collector was attached).
	Trace *obs.Trace
}

// Error implements error.
func (v *Violation) Error() string { return v.Err.Error() }

// Unwrap exposes the sentinel chain to errors.Is / errors.As.
func (v *Violation) Unwrap() error { return v.Err }

// Violated reports whether err is (or wraps) any governor sentinel.
func Violated(err error) bool {
	return errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrRowBudget) ||
		errors.Is(err, ErrMemBudget) ||
		errors.Is(err, ErrAdmission)
}

// TraceOf extracts the partial trace carried by a Violation in err's
// chain, or nil.
func TraceOf(err error) *obs.Trace {
	var v *Violation
	if errors.As(err, &v) {
		return v.Trace
	}
	return nil
}
