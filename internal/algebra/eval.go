package algebra

import (
	"context"
	"fmt"
	"strings"
	"time"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// Evaluator materializes project–join expressions against a database. The
// zero value is ready to use: hash joins in sequential order (join.Order's
// zero value), no statistics.
type Evaluator struct {
	// Algorithm is the strategy every join node runs; nil means join.Hash.
	Algorithm join.Algorithm
	// Order sequences the binary plan's joins: join.Sequential, the zero
	// value, joins left to right as written; join.Greedy picks the
	// cheapest pair first.
	Order join.Order
	// Limits bounds the evaluation with the resource governor: a
	// wall-clock deadline, a final-result row cap, the intermediate-row
	// budget (the guard rail for exponential blow-up; exceeding it aborts
	// with ErrBudgetExceeded) and an estimated-memory budget. Every join
	// strategy checks the governor cooperatively at tuple-batch
	// granularity, so violations abort mid-join with a typed sentinel
	// (governor.ErrDeadline, ErrRowBudget, ErrMemBudget, ErrCanceled)
	// rather than after materializing. The zero Limits (with a background
	// context) keeps the engine on its ungoverned zero-overhead path.
	Limits governor.Limits
	// Admit, when true, turns on pre-flight admission control: before a
	// join node runs on the greedy binary planner, its predicted peak
	// intermediate (the larger of the System R estimate and the
	// worst-case greedy AGM peak) is compared against the
	// intermediate-row budget, and the node is rejected with
	// governor.ErrAdmission instead of being killed mid-flight. Join
	// nodes routed to the output-bounded strategies (wcoj, yannakakis)
	// are always admitted — the row budget still guards them during
	// execution. False (the default) is the override: mis-predicted
	// queries run and the mid-flight checkpoints catch real violations.
	Admit bool
	// AutoWCOJ, when true, lets each n-ary join node of three or more
	// inputs switch to the worst-case-optimal generic join (join.Generic)
	// when the greedy binary planner's predicted peak intermediate
	// (join.Plan.Peak: the larger of the System R estimate and the
	// worst-case greedy AGM peak) exceeds the node's AGM output bound —
	// the regime of the paper's Lemma 1 gadgets, where every binary plan
	// is predicted to materialize more than the n-ary output justifies.
	// Nodes below that threshold keep the configured binary algorithm.
	// Set Algorithm to join.Generic{} to force the generic join on every
	// join node instead.
	AutoWCOJ bool
	// AutoYannakakis, when true, runs GYO ear removal over each n-ary
	// join node's scheme hypergraph and evaluates α-acyclic nodes with
	// Yannakakis' algorithm (join.Yannakakis): full semijoin reduction
	// along the join tree, then joins that never outgrow the output — the
	// Durand–Grandjean tractable frontier. Cyclic nodes fall through to
	// AutoWCOJ (if set) and the binary planner; together the two flags are
	// the -join=auto three-way selector: acyclic → yannakakis, cyclic with
	// predicted blow-up → wcoj, else greedy binary. Set Algorithm to
	// join.Yannakakis{} to force the strategy on every join node instead
	// (cyclic nodes then run the greedy hash plan).
	AutoYannakakis bool
	// Cache, when true and no SharedCache is set, gives each Eval call a
	// SubexprCache of its own (common-subexpression elimination). It does
	// not outlive the call and is unbounded.
	Cache bool
	// Parallelism is read by nothing: an evaluation runs on the goroutine
	// that called it. The field stays because bench/replay.go names it and
	// bench/ is the frozen benchmark contract.
	Parallelism int
	// SharedCache, when non-nil, is the call's cache instead: a composite
	// subexpression is evaluated once per content across Eval calls and
	// concurrent callers, keyed by its text plus the fingerprints of the
	// relations it references, so a changed relation misses. A projection
	// of an operand is no entry: it is a fact of its relation, found there
	// with or without a cache (Relation.Projection).
	SharedCache *SubexprCache
	// Collector, when non-nil, records a span per operator (cardinalities,
	// scheme width, wall time, join algorithm, cache status, AGM bound)
	// and evaluation-wide counters into an obs trace. Nil — the zero
	// value — keeps the engine on its uninstrumented fast path: span and
	// metric calls reduce to nil checks, with no allocation or clock
	// reads (see BenchmarkE9Eval's traced/untraced pairs).
	//
	// The collector belongs to the goroutine calling Eval: read it
	// (Collector.Trace, Collector.Metrics.Snapshot) once Eval returns.
	Collector *obs.Collector
	// Registry, when non-nil, aggregates every EvalContext outcome —
	// success or violation — into process-wide telemetry: wall time into
	// the latency histogram and, when a Collector is also attached, the
	// trace's metrics and span tree into the cross-evaluation totals and
	// the /debug/traces ring. Nil (the zero value) publishes nothing and
	// costs one nil check per evaluation.
	Registry *obs.Registry
}

// EvalOptions is the Evaluator under the name option-passing callers (the
// CLIs, the decide layer, relbench) configure it by: one declaration, so a
// field is written once.
type EvalOptions = Evaluator

// NewEvaluator returns a copy of the options to evaluate with; the caller
// owns it and may go on setting fields.
func (ev Evaluator) NewEvaluator() *Evaluator { return &ev }

// SetStrategy configures the evaluator for one of join.StrategyNames — the
// only place a strategy name becomes behaviour: "auto" turns on the per-node
// three-way selector over the default binary algorithm, any other name forces
// that join.Algorithm on every join node.
func (ev *Evaluator) SetStrategy(name string) error {
	if name == "auto" {
		ev.Algorithm, ev.AutoWCOJ, ev.AutoYannakakis = nil, true, true
		return nil
	}
	alg, err := join.ByName(name)
	if err != nil {
		return fmt.Errorf("unknown strategy %q (valid strategies: %s)", name, strings.Join(join.StrategyNames(), ", "))
	}
	ev.Algorithm, ev.AutoWCOJ, ev.AutoYannakakis = alg, false, false
	return nil
}

// ErrBudgetExceeded is returned (wrapped) when evaluation exceeds the
// Evaluator's intermediate-row budget. It is the governor's row-budget
// sentinel under its historical algebra name, so errors.Is works with
// either spelling; match with errors.Is, never ==.
var ErrBudgetExceeded = governor.ErrRowBudget

// AlgorithmName names the binary-join algorithm the evaluator will
// actually use, resolving the nil default ("hash").
func (ev *Evaluator) AlgorithmName() string { return ev.algorithm().Name() }

func (ev *Evaluator) algorithm() join.Algorithm {
	if ev.Algorithm != nil {
		return ev.Algorithm
	}
	return join.Hash{}
}

// Eval computes e(db). Operand references are checked against the
// database: the named relation must exist and its scheme must be set-equal
// to the operand's declared scheme.
func (ev *Evaluator) Eval(e Expr, db relation.Database) (*relation.Relation, error) {
	return ev.EvalContext(context.Background(), e, db)
}

// EvalContext is Eval under a context and the evaluator's Limits: the
// governor carries both through every join strategy, which check it
// cooperatively at tuple-batch granularity. Cancellation, deadlines and
// budget violations surface as errors.Is-able governor sentinels; when a
// collector is attached, the error also carries the partial span tree
// (governor.TraceOf) so EXPLAIN ANALYZE can render where the budget
// died. A background context with zero Limits keeps the whole governance
// layer on its nil fast path.
func (ev *Evaluator) EvalContext(ctx context.Context, e Expr, db relation.Database) (*relation.Relation, error) {
	return ev.evaluate(ctx, e, db, nil)
}

// EvalTo is EvalContext writing the answer into sink instead of returning
// it: Begin with the answer's scheme and cardinality, then its rows in
// sorted order. An answer asked for the first time since the shared
// cache's last Reset is not built at all when it is a root join node,
// whatever its strategy: the tree join and the binary plan write its rows
// into sink after Begin with their count, the binary plan sorting row ids
// and not rows, and the generic join as its search finds them, with
// Begin's count unknown (-1), known after the last row. None stores
// anything. Every other answer — a projected node, a one-input node, the
// generic join's empty answer, and any answer asked again — is
// materialized and stored as EvalContext would, then replayed into sink
// (relation.Replay). So an answer is stored the second time it is asked
// for, and served from the store from the third (DESIGN.md, "Caching").
// A written node is evaluated outside the result store, so no other
// request ever waits on how fast this one's sink takes its rows.
//
// An error after Begin leaves sink holding part of the answer; which
// errors can come that late is the joins' writing loops': the governor's
// deadline, cancellation and budgets, and a recovered engine panic.
func (ev *Evaluator) EvalTo(ctx context.Context, e Expr, db relation.Database, sink relation.Sink) error {
	r, err := ev.evaluate(ctx, e, db, sink)
	if err == nil && r != nil && sink != nil {
		relation.Replay(r, sink)
	}
	return err
}

// evaluate is EvalContext, offering the root join node the sink out
// (EvalTo): it returns no relation and no error when the answer went there.
func (ev *Evaluator) evaluate(ctx context.Context, e Expr, db relation.Database, out relation.Sink) (*relation.Relation, error) {
	var start time.Time
	if ev.Registry != nil {
		start = time.Now() // clock read only when telemetry is on
	}
	gov := governor.New(ctx, ev.Limits).WithMetrics(ev.Collector.M())
	// One cache per call: the shared one, else its own under Cache, else none.
	if ev.SharedCache == nil && ev.Cache {
		call := *ev
		call.SharedCache = &SubexprCache{results: NewMemo[string, *relation.Relation](0, nil)} // unbounded: it dies with the call
		ev = &call
	}
	var w *written
	if out != nil {
		w = &written{Sink: out}
	}
	r, err := ev.eval(e, db, ev.newSpan(nil, e), gov, w)
	if r != nil { // else it streamed, and the join checked its size
		err = gov.CheckOutput(r.Len())
	}
	if ev.Registry != nil {
		ev.Registry.ObserveCollector(ev.Collector, time.Since(start))
	}
	if err != nil {
		return nil, ev.violation(err)
	}
	return r, nil
}

// violation annotates a governor violation with the partial span tree
// captured at the time of death. Non-violations and collector-less
// evaluations pass through unchanged, as do errors already annotated.
func (ev *Evaluator) violation(err error) error {
	if ev.Collector == nil || !governor.Violated(err) || governor.TraceOf(err) != nil {
		return err
	}
	return &governor.Violation{Err: err, Trace: ev.Collector.Trace()}
}

// newSpan opens the span for node e under parent (a root span when parent
// is nil). It returns nil — and allocates nothing — when no collector is
// attached. A join's arguments are evaluated in order, so Children order
// always matches argument order.
func (ev *Evaluator) newSpan(parent *obs.Span, e Expr) *obs.Span {
	if ev.Collector == nil {
		return nil
	}
	var sp *obs.Span
	if parent == nil {
		sp = ev.Collector.Start(spanOp(e), e.label())
	} else {
		sp = parent.Child(spanOp(e), e.label())
	}
	sp.SetSchemeWidth(e.Scheme().Len())
	return sp
}

func spanOp(e Expr) string {
	switch e.(type) {
	case *Operand:
		return obs.OpScan
	case *Project:
		return obs.OpProject
	case *Join:
		return obs.OpJoin
	default:
		return fmt.Sprintf("%T", e)
	}
}

// eval computes one node, recording its span (sp may be nil: tracing off). A
// node served from the call's cache gets a span with cache status "hit" and
// no children — its subtree was not executed here. Every node is a governor
// checkpoint, so cancellation reaches even join-free expressions; a failed
// node is not cached (Memo), so an aborted evaluation leaves nothing partial.
// out is the root's sink (EvalTo) and nil below the root. A root join
// node asked for the first time since the shared cache's last Reset is
// evaluated outside the result store, so that its answer can stream into
// out (multi) while no other request waits on it; it returns no relation
// when it did.
func (ev *Evaluator) eval(e Expr, db relation.Database, sp *obs.Span, gov *governor.Governor, out *written) (*relation.Relation, error) {
	sp.Begin()
	fault.Hit(fault.EvalNode)
	if err := gov.Check(); err != nil {
		return ev.finishSpan(sp, "", nil, nil, err)
	}
	// Operands and their projections are lookups — a catalog relation and
	// a fact of it (Relation.Projection) — so one relation has one home;
	// only the other composite nodes are memoized.
	if lookup(e) || ev.SharedCache == nil {
		r, err := ev.evalNode(e, "", db, sp, gov, out)
		return ev.finishSpan(sp, "", r, out, err)
	}
	// Built once per node: the result's key here and, for a join that
	// misses, its plan facts' key in multi.
	key := contentKey(e.String(), e.Operands(), db)
	if _, isJoin := e.(*Join); isJoin && out != nil && !ev.SharedCache.ask(key) {
		ev.Collector.M().CacheMiss()
		r, err := ev.evalNode(e, key, db, sp, gov, out)
		return ev.finishSpan(sp, obs.CacheMiss, r, out, err)
	}
	r, hit, err := ev.SharedCache.results.Do(gov, key, func() (*relation.Relation, error) {
		return ev.evalNode(e, key, db, sp, gov, nil)
	})
	cacheStatus := obs.CacheMiss
	if hit {
		cacheStatus = obs.CacheHit
		ev.Collector.M().CacheHit()
	} else {
		ev.Collector.M().CacheMiss()
	}
	return ev.finishSpan(sp, cacheStatus, r, nil, err)
}

// finishSpan closes sp with the node's outcome and passes the result
// through. A node that succeeded without a relation wrote its rows into
// out.
func (ev *Evaluator) finishSpan(sp *obs.Span, cacheStatus string, r *relation.Relation, out *written, err error) (*relation.Relation, error) {
	if sp != nil {
		sp.SetCache(cacheStatus)
		sp.SetErr(err)
		rows := 0
		if r != nil {
			rows = r.Len()
		} else if err == nil && out != nil {
			// An unknown count is the generic join's, which observed its
			// total as the span's peak (join.Exec.Out).
			rows = out.rows
			if rows < 0 {
				rows = sp.MaxIntermediate
			}
		}
		sp.Finish(rows)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

// evalNode computes one node from its children. key is the node's content
// key when the call has a cache, else empty; out is as for eval.
func (ev *Evaluator) evalNode(e Expr, key string, db relation.Database, sp *obs.Span, gov *governor.Governor, out *written) (*relation.Relation, error) {
	switch x := e.(type) {
	case *Operand:
		r, err := db.Get(x.Name())
		if err != nil {
			return nil, err
		}
		if !r.Scheme().Equal(x.Scheme()) {
			return nil, fmt.Errorf("algebra: operand %q declared over %v but database relation has scheme %v",
				x.Name(), x.Scheme(), r.Scheme())
		}
		return r, nil

	case *Project:
		sp.Reserve(1, Size(x)-1)
		of := collapse(x)
		if j, ok := of.(*Join); ok {
			return ev.projectedJoin(x, j, key, db, sp, gov)
		}
		// Else of is an operand, and the projection a fact of it.
		child, err := ev.eval(of, db, ev.newSpan(sp, of), gov, nil)
		if err != nil {
			return nil, err
		}
		if sp != nil {
			sp.SetInputs([]int{child.Len()})
		}
		out, err := child.Projection(x.Onto())
		if err != nil {
			return nil, err
		}
		// Charged like any materialization, found or built.
		ev.Collector.M().ObserveIntermediate(out.Len())
		return join.Exec{Gov: gov}.Materialized(out)

	case *Join:
		sp.Reserve(len(x.Args()), Size(x)-1)
		args, err := ev.evalArgs(x.Args(), db, sp, gov)
		if err != nil {
			return nil, err
		}
		return ev.multi(args, key, sp, gov, out, nil)

	default:
		return nil, fmt.Errorf("algebra: unknown expression type %T", e)
	}
}

// lookup reports whether e is a stored relation or a projection of one:
// a catalog relation or a fact of it, found on the relation after its
// first use rather than computed per request.
func lookup(e Expr) bool {
	switch x := e.(type) {
	case *Operand:
		return true
	case *Project:
		_, stored := collapse(x).(*Operand)
		return stored
	}
	return false
}

// collapse returns what p projects once directly nested projections are
// collapsed: π_X(π_Y(e)) is π_X(e).
func collapse(p *Project) Expr {
	of := p.Of()
	for inner, ok := of.(*Project); ok; inner, ok = of.(*Project) {
		of = inner.Of()
	}
	return of
}

// projectedJoin computes π_X over the join j as one join node, planned
// under the projection's key, which is the only cache entry: the join's
// own span sits under the projection's, and its answer is π_X (join.Plan.
// Onto). Each argument is narrowed first to the attributes the answer or
// another argument needs — those in X or shared by two or more arguments
// — a lookup through its Projection fact, anything else by Project.
func (ev *Evaluator) projectedJoin(x *Project, j *Join, key string, db relation.Database, sp *obs.Span, gov *governor.Governor) (*relation.Relation, error) {
	jsp := ev.newSpan(sp, j)
	jsp.SetSchemeWidth(x.Scheme().Len()) // it writes π_X, not the join
	jsp.Begin()
	jsp.Reserve(len(j.Args()), Size(j)-1)
	exprs := j.Args()
	args, err := ev.evalArgs(exprs, db, jsp, gov)
	for i := 0; err == nil && i < len(exprs); i++ {
		args[i], err = ev.narrow(args[i], lookup(exprs[i]), x.Onto(), exprs, gov)
	}
	var r *relation.Relation
	if err == nil {
		r, err = ev.multi(args, key, jsp, gov, nil, x)
	}
	if sp != nil && r != nil {
		sp.SetInputs([]int{r.Len()})
	}
	return ev.finishSpan(jsp, "", r, nil, err)
}

// narrow returns r, the value of one of args, restricted to the attributes
// in onto or in the schemes of two or more of args: r itself when it has
// no other, else its Projection fact when stored (a lookup), else a
// Project of it, charged like any materialization.
func (ev *Evaluator) narrow(r *relation.Relation, stored bool, onto relation.Scheme, args []Expr, gov *governor.Governor) (*relation.Relation, error) {
	sc := r.Scheme()
	keep := make([]relation.Attribute, 0, sc.Len())
	for c := 0; c < sc.Len(); c++ {
		a, n := sc.Attr(c), 0
		for _, e := range args {
			if e.Scheme().Has(a) {
				n++
			}
		}
		if onto.Has(a) || n >= 2 {
			keep = append(keep, a)
		}
	}
	if len(keep) == sc.Len() {
		return r, nil
	}
	project := r.Project
	if stored {
		project = r.Projection
	}
	out, err := project(relation.MustScheme(keep...))
	if err != nil {
		return nil, err
	}
	ev.Collector.M().ObserveIntermediate(out.Len())
	return join.Exec{Gov: gov}.Materialized(out)
}

// evalArgs evaluates a join node's argument subtrees, in order.
func (ev *Evaluator) evalArgs(exprs []Expr, db relation.Database, sp *obs.Span, gov *governor.Governor) ([]*relation.Relation, error) {
	args := make([]*relation.Relation, len(exprs))
	for i, a := range exprs {
		r, err := ev.eval(a, db, ev.newSpan(sp, a), gov, nil)
		if err != nil {
			return nil, err
		}
		args[i] = r
	}
	return args, nil
}

// multi joins args, the inputs of the join node keyed key, aborting
// mid-plan — and, under a governor, mid-join — as soon as any checkpoint
// trips; under proj, non-nil, the node answers proj's projection of the
// join (projectedJoin). Offered the sink out, which only a root node
// asked for the first time is (eval), the node's join writes its answer
// there and returns none; a node that builds its answer all the same
// stores it.
func (ev *Evaluator) multi(args []*relation.Relation, key string, sp *obs.Span, gov *governor.Governor, out *written, proj *Project) (*relation.Relation, error) {
	if sp != nil {
		ins := make([]int, len(args))
		for i, a := range args {
			ins[i] = a.Len()
		}
		sp.SetInputs(ins)
	}
	x := join.Exec{Gov: gov, Metrics: ev.Collector.M(), Span: sp}
	// The node's one plan: the selector, the admission gate, the span
	// annotation and the strategy all read it. With a shared cache its
	// facts outlive the request, so the same node over the same content
	// finds them computed.
	p, known := ev.SharedCache.plan(key, x.Metrics, args)
	if proj != nil {
		p.Onto(proj.Onto())
	}
	sp.SetPlanKnown(known)
	alg := ev.choose(p, sp)
	if out == nil {
		return ev.run(x, p, alg)
	}
	// The first sight of this node's content since the last reset: its
	// answer is likely asked once, so it is written and not kept.
	x.Out = out
	r, err := ev.run(x, p, alg)
	if r == nil || err != nil {
		ev.SharedCache.streamed()
		return r, err
	}
	// Built after all: a one-input node, the generic join's empty answer.
	if key == "" {
		return r, nil
	}
	r, _, err = ev.SharedCache.results.Do(gov, key, func() (*relation.Relation, error) { return r, nil })
	return r, err
}

// written is EvalTo's sink as the root node gets it, noting the answer's
// size for the node's span: Begin's count, -1 when that is unknown.
type written struct {
	relation.Sink
	rows int
}

func (w *written) Begin(scheme relation.Scheme, rows int) bool {
	w.rows = rows
	return w.Sink.Begin(scheme, rows)
}

// choose picks the strategy for one join node: the configured algorithm
// unless an auto flag routes the node to an output-bounded strategy.
func (ev *Evaluator) choose(p *join.Plan, sp *obs.Span) join.Algorithm {
	alg := ev.algorithm()
	// A binary join's only intermediate is its own output: it cannot
	// exceed its own AGM bound, and the full reducer has nothing to save
	// there — the auto flags look at 3+-ary nodes only.
	if len(p.Inputs) < 3 {
		return alg
	}
	if ev.AutoYannakakis {
		if _, acyclic := p.JoinTree(); acyclic {
			return join.Yannakakis{}
		}
		// Cyclic: record the verdict and fall through to the AGM blow-up
		// check.
		sp.SetStructure(obs.StructureCyclic)
	}
	if ev.AutoWCOJ {
		// The peak is predicted two ways: System R estimates (catches
		// workloads whose statistics already promise large intermediates)
		// and the worst-case AGM bound of each greedy accumulator (catches
		// the Lemma 1 gadgets, whose correlations defeat the independence
		// assumption behind the estimates).
		if p.PeakAboveBound() {
			return join.Generic{}
		}
	}
	return alg
}

// run is the tail every join node goes through: the admission gate, span
// annotation, and the strategy itself with panics recovered to errors.
func (ev *Evaluator) run(x join.Exec, p *join.Plan, alg join.Algorithm) (*relation.Relation, error) {
	if _, binary := alg.(join.Hash); binary && ev.Admit && len(p.Inputs) > 1 {
		// Pre-flight admission: reject before any join work when the
		// binary plan's predicted peak intermediate already exceeds the
		// budget. The one-pass strategies' peak is capped by their own
		// output, so they are admitted and guarded mid-flight by the row
		// budget instead.
		if err := x.Gov.Admit(p); err != nil {
			return nil, err
		}
	}
	if x.Span != nil {
		x.Span.SetAGMBound(p.AGMBound())
		x.Span.SetAlgorithm(alg.Name())
	}
	return safeMulti(x, p, alg, ev.Order)
}

// safeMulti is join.Multi with panic recovery: a crash inside a strategy
// (or injected by the fault harness) surfaces as a join.ErrPanic error
// instead of killing the process.
func safeMulti(x join.Exec, p *join.Plan, alg join.Algorithm, order join.Order) (out *relation.Relation, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			out, err = nil, join.Recovered(alg.Name()+" join", rec)
		}
	}()
	return join.Multi(x, p, alg, order)
}

// Eval evaluates e(db) with default settings (hash join, sequential
// order).
func Eval(e Expr, db relation.Database) (*relation.Relation, error) {
	ev := Evaluator{}
	return ev.Eval(e, db)
}

// EvalSingle evaluates an expression whose operands all name the same
// single relation — the common case for the paper's constructions, where
// every query runs against one relation R.
func EvalSingle(e Expr, name string, r *relation.Relation) (*relation.Relation, error) {
	return Eval(e, relation.Single(name, r))
}
