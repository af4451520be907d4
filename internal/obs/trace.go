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
	c     *Collector // whose slabs the span's descendants are carved from; nil outside one
}

// Child appends and returns a new child span.
func (s *Span) Child(op, label string) *Span {
	if s == nil {
		return nil
	}
	c := s.c.span(op, label)
	s.Children = append(s.Children, c)
	return c
}

// Reserve promises the span children children and its subtree
// descendants spans below it in all, so that they are carved from the
// collector's slabs: the spans from one, and the children lists — this
// one now, each descendant's when it reserves in turn — from another.
// Growing the promised tree then allocates nothing more. A subtree that
// stays smaller than promised (a child served from a cache) leaves the
// rest of the slabs unused. Outside a collector it does nothing.
func (s *Span) Reserve(children, descendants int) {
	if s == nil || s.c == nil {
		return
	}
	c := s.c
	if len(c.spans) < descendants {
		c.spanSlab = make([]Span, descendants)
		c.spans = c.spanSlab
	}
	if len(c.kids) < descendants {
		c.kidSlab = make([]*Span, descendants)
		c.kids = c.kidSlab
	}
	children = min(children, len(c.kids))
	s.Children, c.kids = c.kids[:0:children], c.kids[children:]
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
// records, a Collector belongs to one goroutine: never share one across
// concurrent Eval calls.
//
// A collector is reused after Reset, which keeps its slabs: its spans are
// valid until then, so whatever outlives the evaluation holds a copy
// (Registry.Observe keeps one).
type Collector struct {
	// Metrics accumulates the evaluation-wide counters.
	Metrics Metrics

	roots []*Span
	// root is the first root span, so that Start takes no span from the
	// slabs its own Reserve sizes.
	root Span
	// spanSlab and kidSlab are the slabs Span.Reserve made, whole; spans
	// and kids are what is left of them: spans not handed out yet, and
	// room for children lists.
	spanSlab, spans []Span
	kidSlab, kids   []*Span
}

// Start opens a root span for one evaluation and returns it.
func (c *Collector) Start(op, label string) *Span {
	if c == nil {
		return nil
	}
	var s *Span
	if len(c.roots) == 0 {
		c.root = Span{Op: op, Label: label, c: c}
		s = &c.root
	} else {
		s = c.span(op, label)
	}
	c.roots = append(c.roots, s)
	return s
}

// Reset empties the collector for its next evaluation. It keeps the
// slabs, so a span tree no larger than the largest before it allocates
// nothing; every span the collector handed out is invalid from here on.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	clear(c.roots)
	c.roots = c.roots[:0]
	c.root = Span{}
	clear(c.spanSlab[:len(c.spanSlab)-len(c.spans)])
	clear(c.kidSlab[:len(c.kidSlab)-len(c.kids)])
	c.spans, c.kids = c.spanSlab, c.kidSlab
	c.Metrics = Metrics{}
}

// span returns a new span of the collector's, from its slab while the
// slab lasts; a nil collector's span is on its own.
func (c *Collector) span(op, label string) *Span {
	if c == nil {
		return &Span{Op: op, Label: label}
	}
	var s *Span
	if len(c.spans) > 0 {
		s, c.spans = &c.spans[0], c.spans[1:]
	} else {
		s = new(Span)
	}
	s.Op, s.Label, s.c = op, label, c
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
// shared, so take the trace after the evaluation finishes, and read it
// before the collector's next Reset.
func (c *Collector) Trace() *Trace {
	if c == nil {
		return nil
	}
	t := c.view()
	t.Roots = make([]*Span, len(c.roots))
	copy(t.Roots, c.roots)
	return &t
}

// view is the collector's trace in place: its root list and spans are the
// collector's own.
func (c *Collector) view() Trace {
	return Trace{Roots: c.roots, Metrics: c.Metrics.Snapshot(), Planning: c.Metrics.Planning()}
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
