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
// node it runs under. It is the first argument of every Hash.Join,
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
	// Out, when set, is where the join writes its answer instead of
	// building it, in sorted order, and returns no relation. Every strategy
	// writes. The binary plan (hash, and Yannakakis' cyclic fallback) and
	// the tree join call Begin with their count once it has passed Sized
	// and the output check, before a row exists; the binary plan then
	// writes its last step's row ids and sorts them by the values they
	// name. The generic join, which learns its count only from its search,
	// calls Begin with -1 and runs the checks of the answer it would have
	// built — the batch checks as the rows go out, then grown and the
	// output check on the total, so that the span's peak is the count.
	// A one-input node, the generic join's empty answer, a generic join
	// that keeps a dedup set or whose projection does not lead its order in
	// its own order, and a projected node under hash or the tree join
	// (Multi) are built all the same, and returned.
	Out relation.Sink
}

// Materialized accounts for one relation a join has just materialized —
// a semijoin result, an empty generic join, a projection: Sized, on a
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
// against the row budget and charged to the memory budget at what its
// rows occupy in a relation's backing arrays (relation.RowBytes). Every
// relation a strategy builds is accounted for here exactly once; the
// paper's blow-up lives in exactly these intermediates. A count-first
// producer (the hash join's answer, the tree join) calls it on the count,
// before a single row exists, so a join over budget dies holding its probe
// bookkeeping and not a relation; the others reach it through
// Materialized. The in-loop batch checks can trail the last partial batch,
// so this is the authoritative row check.
func (x Exec) Sized(rows, arity int) error { return x.grown(rows, 0, arity) }

// grown is Sized for a relation whose producer charged its first charged
// rows to the memory budget batch by batch as it built them — the generic
// join, which cannot count first: only the rest is charged here, so the
// relation is charged exactly once in total.
func (x Exec) grown(rows, charged, arity int) error {
	return x.counted(rows, int64(rows-charged)*relation.RowBytes(arity))
}

// counted accounts for one intermediate of the given cardinality that
// occupies bytes: the peak, the row check and the memory charge of Sized.
// A binary plan's intermediate, which holds row ids and not values, is
// charged here directly at what its ids occupy; everything else comes
// through Sized. The strings the values point to are never charged: a
// join's or a projection's output shares them with its inputs. The budget
// bounds cumulative materialization, not RSS.
func (x Exec) counted(rows int, bytes int64) error {
	x.Span.ObservePeak(rows)
	if x.Gov == nil {
		return nil
	}
	if err := x.Gov.CheckRows(rows); err != nil {
		return err
	}
	return x.Gov.ChargeBytes(bytes)
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
