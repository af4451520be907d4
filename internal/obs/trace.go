package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Span operator kinds, mirroring the algebra's node types.
const (
	OpScan    = "scan"    // base-relation lookup
	OpProject = "project" // projection π
	OpJoin    = "join"    // natural join ∗ (one span per n-ary node)
)

// Span cache statuses. Empty means caching was off for the node.
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
)

// Span join-hypergraph structures, recorded when the evaluator ran GYO
// ear removal over a join node. Empty means the structure was not
// examined (binary algorithm chosen without detection).
const (
	StructureAcyclic = "acyclic"
	StructureCyclic  = "cyclic"
)

// Span is one operator's execution record. A span tree mirrors the
// evaluated expression tree: a join span's children are its argument
// subtrees, a projection span's child is its input. A node served from a
// cache gets a span with Cache == CacheHit and no children — the subtree
// was not executed.
//
// Spans are created by the evaluator strictly in argument order, and a
// span's fields are written only by the goroutine running the evaluation.
//
// All methods are nil-safe no-ops, per the package's zero-overhead
// contract.
type Span struct {
	// Op is the operator kind: OpScan, OpProject or OpJoin.
	Op string `json:"op"`
	// Label is the operator's display label (relation name, projection
	// scheme, join arity).
	Label string `json:"label"`
	// SchemeWidth is the number of attributes of the node's output scheme.
	SchemeWidth int `json:"scheme_width,omitempty"`
	// InputRows holds the observed cardinality of each input, in argument
	// order.
	InputRows []int `json:"input_rows,omitempty"`
	// OutputRows is the observed output cardinality.
	OutputRows int `json:"output_rows"`
	// StartNanos is the node's wall-clock start as Unix nanoseconds,
	// recorded by Begin. It places the span on an absolute timeline for
	// the Chrome trace-event export; 0 means the span never began
	// (cache hit) or predates this field (old serialized traces).
	StartNanos int64 `json:"start_ns,omitempty"`
	// WallNanos is the node's wall-clock evaluation time, including its
	// subtree.
	WallNanos int64 `json:"wall_ns"`
	// Algorithm names the binary-join algorithm used (join spans only).
	Algorithm string `json:"algorithm,omitempty"`
	// Cache is CacheHit or CacheMiss when subexpression caching was on.
	Cache string `json:"cache,omitempty"`
	// AGMBound is the Atserias–Grohe–Marx worst-case output bound for a
	// join span, computed from the observed input cardinalities and
	// schemes: no instance with these input sizes can join to more tuples.
	// Comparing OutputRows against it shows how close the workload sits to
	// the theoretical blow-up ceiling.
	AGMBound float64 `json:"agm_bound,omitempty"`
	// MaxIntermediate is the largest binary-join output materialized while
	// evaluating this n-ary join span. This is where the paper's blow-up
	// shows: on the gadget queries it dwarfs the span's OutputRows.
	MaxIntermediate int `json:"max_intermediate,omitempty"`
	// Candidates counts the candidate attribute values enumerated by a
	// worst-case-optimal generic join (algorithm=wcoj spans only).
	Candidates int `json:"candidates,omitempty"`
	// Intersections counts the attribute-level intersection passes of a
	// worst-case-optimal generic join (algorithm=wcoj spans only).
	Intersections int `json:"intersections,omitempty"`
	// Structure is the GYO verdict on the join node's hypergraph
	// (StructureAcyclic or StructureCyclic), when detection ran.
	Structure string `json:"structure,omitempty"`
	// Semijoins counts the semijoin passes of a Yannakakis full reduction
	// (algorithm=yannakakis spans only).
	Semijoins int `json:"semijoins,omitempty"`
	// ReducedRows totals the input cardinalities surviving the full
	// reducer; InputRows' sum minus this is the dangling tuples removed.
	ReducedRows int `json:"reduced_rows,omitempty"`
	// Degraded marks a join span whose original strategy (wcoj or
	// yannakakis) failed and whose result came from a greedy-binary
	// retry; Algorithm then names the fallback that actually ran.
	Degraded bool `json:"degraded,omitempty"`
	// Plan is CacheHit on a join span whose planning facts (join tree, AGM
	// bound, predicted peaks) a facts store already held, so that the node
	// planned nothing it found there.
	Plan string `json:"plan,omitempty"`
	// Err records the node's evaluation error, if any (budget aborts show
	// up here).
	Err string `json:"error,omitempty"`
	// Children are the executed child operators, in argument order.
	Children []*Span `json:"children,omitempty"`

	start time.Time
}

// Child appends and returns a new child span.
func (s *Span) Child(op, label string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Op: op, Label: label}
	s.Children = append(s.Children, c)
	return c
}

// Begin marks the start of the node's evaluation.
func (s *Span) Begin() {
	if s == nil {
		return
	}
	s.start = time.Now()
	s.StartNanos = s.start.UnixNano()
}

// Finish records the node's wall time and observed output cardinality.
func (s *Span) Finish(outputRows int) {
	if s == nil {
		return
	}
	s.WallNanos = time.Since(s.start).Nanoseconds()
	s.OutputRows = outputRows
}

// SetSchemeWidth records the node's output-scheme width.
func (s *Span) SetSchemeWidth(w int) {
	if s == nil {
		return
	}
	s.SchemeWidth = w
}

// SetInputs records the observed input cardinalities in argument order.
func (s *Span) SetInputs(rows []int) {
	if s == nil {
		return
	}
	s.InputRows = rows
}

// SetAlgorithm records the join algorithm.
func (s *Span) SetAlgorithm(name string) {
	if s == nil {
		return
	}
	s.Algorithm = name
}

// SetCache records the node's cache status (CacheHit or CacheMiss).
func (s *Span) SetCache(status string) {
	if s == nil {
		return
	}
	s.Cache = status
}

// ObservePeak folds one binary-join output cardinality into the span's
// MaxIntermediate. Called from the single goroutine evaluating the node.
func (s *Span) ObservePeak(rows int) {
	if s == nil {
		return
	}
	if rows > s.MaxIntermediate {
		s.MaxIntermediate = rows
	}
}

// SetWCOJ records a worst-case-optimal generic join's search counters:
// candidate values enumerated and attribute intersections performed.
func (s *Span) SetWCOJ(candidates, intersections int) {
	if s == nil {
		return
	}
	s.Candidates = candidates
	s.Intersections = intersections
}

// SetStructure records the GYO verdict on the join node's hypergraph.
func (s *Span) SetStructure(structure string) {
	if s == nil {
		return
	}
	s.Structure = structure
}

// SetYannakakis records a full reduction's semijoin pass count and
// surviving input cardinality.
func (s *Span) SetYannakakis(semijoins, reducedRows int) {
	if s == nil {
		return
	}
	s.Semijoins = semijoins
	s.ReducedRows = reducedRows
}

// SetDegraded marks the span as served by a graceful-degradation retry.
func (s *Span) SetDegraded() {
	if s == nil {
		return
	}
	s.Degraded = true
}

// SetPlanKnown records whether a facts store already held the join
// node's planning facts.
func (s *Span) SetPlanKnown(known bool) {
	if s == nil || !known {
		return
	}
	s.Plan = CacheHit
}

// SetAGMBound records the AGM worst-case output bound for a join span.
func (s *Span) SetAGMBound(bound float64) {
	if s == nil {
		return
	}
	s.AGMBound = bound
}

// SetErr records the node's evaluation error.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.Err = err.Error()
}

// Wall returns the span's wall time as a duration.
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.WallNanos)
}

// Collector gathers one (or more) evaluations' spans and metrics. The
// zero value is ready to use; a nil *Collector is a valid "tracing off"
// collector on which every method no-ops. Like the evaluation it
// records, a Collector belongs to one goroutine: use one Collector per
// traced evaluation, never one across concurrent Eval calls.
type Collector struct {
	// Metrics accumulates the evaluation-wide counters.
	Metrics Metrics

	roots []*Span
}

// Start opens a root span for one evaluation and returns it.
func (c *Collector) Start(op, label string) *Span {
	if c == nil {
		return nil
	}
	s := &Span{Op: op, Label: label}
	c.roots = append(c.roots, s)
	return s
}

// M returns the collector's metrics, or nil for a nil collector, so
// instrumented code can call metric methods unconditionally.
func (c *Collector) M() *Metrics {
	if c == nil {
		return nil
	}
	return &c.Metrics
}

// Trace snapshots the collector into a serializable Trace. The root list
// is copied, so a later Start does not show in it; the span pointers are
// shared, so take the trace after the evaluation finishes.
func (c *Collector) Trace() *Trace {
	if c == nil {
		return nil
	}
	roots := make([]*Span, len(c.roots))
	copy(roots, c.roots)
	return &Trace{Roots: roots, Metrics: c.Metrics.Snapshot(), Planning: c.Metrics.Planning()}
}

// Trace is a finished evaluation's span tree plus its metrics, the
// payload of cmd/relquery -trace.
type Trace struct {
	// Roots holds one span tree per Eval call observed by the collector
	// (usually exactly one).
	Roots []*Span `json:"trace"`
	// Metrics is the counters snapshot taken with the trace.
	Metrics MetricsSnapshot `json:"metrics"`
	// Planning is the planning counters taken with the trace.
	Planning PlanningSnapshot `json:"planning"`
}

// Root returns the first (usually only) root span, or nil.
func (t *Trace) Root() *Span {
	if t == nil || len(t.Roots) == 0 {
		return nil
	}
	return t.Roots[0]
}

// WriteJSON writes the trace as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}
