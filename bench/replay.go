package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// span is one timed call into a layer. Spans of one replayed request share
// its index; Parent is an index into the trace, -1 for a request's root.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// trace holds every span of a replay in memory until the run ends.
type trace struct {
	epoch time.Time
	spans []span
}

// open starts a span and returns its index.
func (t *trace) open(name string, request, parent int) int {
	t.spans = append(t.spans, span{Name: name, Request: request, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *trace) close(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// time records fn as a span.
func (t *trace) time(name string, request, parent int, fn func()) {
	id := t.open(name, request, parent)
	fn()
	t.close(id)
}

// operatorLayer names the layer each obs operator kind belongs to.
var operatorLayer = map[string]string{obs.OpScan: "relation.scan", obs.OpProject: "algebra.project", obs.OpJoin: "join.exec"}

// adopt copies an evaluation's obs span tree under parent, renaming each
// operator to the layer it belongs to, so eval time splits by operator
// without a change to the program.
func (t *trace) adopt(sp *obs.Span, request, parent int, shift int64) {
	name := operatorLayer[sp.Op]
	start := sp.StartNanos + shift
	t.spans = append(t.spans, span{Name: name, Request: request, Parent: parent, Start: start, End: start + sp.WallNanos})
	id := len(t.spans) - 1
	for _, c := range sp.Children {
		t.adopt(c, request, id, shift)
	}
}

// childTime is, per span, the time its child spans cover.
func (t *trace) childTime() []int64 {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	return children
}

// perRequest sums, for each replayed request, the spans of one name —
// their whole duration, or with self set their duration less their
// children's — in milliseconds.
func (t *trace) perRequest(name string, self bool) []float64 {
	children := t.childTime()
	sums := map[int]float64{}
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		d := s.End - s.Start
		if self {
			d -= children[i]
		}
		sums[s.Request] += float64(d) / 1e6
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// selfShares is each layer's share of the self time on the replayed
// request path: where the requests spent their time. Spans beside the
// path, under a "probes" root, do not count.
func (t *trace) selfShares() map[string]float64 {
	children := t.childTime()
	onPath := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.Parent < 0 {
			onPath[i] = s.Name == "request"
		} else {
			onPath[i] = onPath[s.Parent] // a parent precedes its children
		}
	}
	total := 0.0
	shares := map[string]float64{}
	for i, s := range t.spans {
		if !onPath[i] {
			continue
		}
		self := float64(s.End - s.Start - children[i])
		shares[s.Name] += self
		total += self
	}
	for name := range shares {
		shares[name] = ratio(shares[name], total)
	}
	return shares
}

func (t *trace) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace."+workload+".json"), data, 0o644)
}

// evalConfig is one way of running an evaluation in the replay.
type evalConfig struct {
	strategy    string
	parallelism int
	limits      governor.Limits // zero: the ungoverned engine, its governor nil
	untraced    bool            // no Collector, no Registry
	admit       bool
}

// serverConfig is how internal/server evaluates a query of the strategy.
func serverConfig(strategy string) evalConfig {
	return evalConfig{strategy: strategy, parallelism: 1, limits: tenantLimits, admit: true}
}

// evaluate runs expr as internal/server's serveQuery configures it, but
// for what cfg changes. It returns the collector, nil when untraced.
func evaluate(cfg evalConfig, expr algebra.Expr, db relation.Database, shared *algebra.SubexprCache, reg *obs.Registry) (*relation.Relation, *obs.Collector, error) {
	opts := algebra.EvalOptions{
		Parallelism:    cfg.parallelism,
		Cache:          true,
		SharedCache:    shared,
		AutoWCOJ:       cfg.strategy == "auto",
		AutoYannakakis: cfg.strategy == "auto",
		Limits:         cfg.limits,
		Admit:          cfg.admit,
	}
	var collector *obs.Collector
	if !cfg.untraced {
		collector = &obs.Collector{}
		opts.Collector, opts.Registry = collector, reg
	}
	ev := opts.NewEvaluator()
	ev.Order = join.Greedy
	if cfg.strategy != "auto" {
		alg, err := join.ByName(cfg.strategy)
		if err != nil {
			return nil, nil, err
		}
		ev.Algorithm = alg
	}
	// Only zero Limits under context.Background() leave the governor nil;
	// a request's context is never that one.
	ctx := context.Background()
	if cfg.limits.Enabled() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	out, err := ev.EvalContext(ctx, expr, db)
	return out, collector, err
}

// probe is an evaluation variant timed beside the replayed layers, always
// against an empty shared cache.
type probe struct {
	name string
	cfg  evalConfig
	// capped stops the variant once it materializes more than 32 times the
	// rows the request reads and returns, and leaves it out of the
	// comparison: on the acyclic families the greedy plan is quadratic, a
	// million rows at the reference scale. Admission is off, so that the
	// variant is judged by what it builds and not by a prediction.
	capped bool
	spent  time.Duration
	times  []float64 // ms per completed evaluation
	killed bool      // the variant ran into its row budget: not a candidate
}

// replay runs the workload's first requests through the layers in
// serveQuery order from one goroutine, timing each call into a layer's
// public functions, and returns the per-layer metrics with the trace.
// budget bounds the time the evaluation variants may take together.
func replay(w *workload, requests int, budget time.Duration) (map[string]metric, *trace, error) {
	sample := w.requests[:min(requests, len(w.requests))]
	tr := &trace{epoch: time.Now()}
	reg := obs.NewRegistry()
	base := serverConfig(w.strategy)

	// repeat_warm's requests find their answer in the shared cache; every
	// other workload's find it empty.
	warm := algebra.NewSubexprCache()
	if !w.cold {
		for _, t := range w.tenants {
			expr, err := algebra.ParseForDatabase(t.query, t.db)
			if err != nil {
				return nil, nil, err
			}
			if _, _, err := evaluate(base, expr, t.db, warm, reg); err != nil {
				return nil, nil, err
			}
		}
	}

	ungoverned, untraced, parallel2 := base, base, base
	ungoverned.limits = governor.Limits{}
	untraced.untraced = true
	parallel2.parallelism = 2
	probes := []*probe{
		{name: "base", cfg: base},
		{name: "ungoverned", cfg: ungoverned},
		{name: "untraced", cfg: untraced},
		{name: "parallel2", cfg: parallel2},
	}
	for _, strategy := range []string{"auto", "hash", "wcoj", "yannakakis"} {
		cfg := serverConfig(strategy)
		cfg.admit = false
		probes = append(probes, &probe{name: strategy, cfg: cfg, capped: true})
	}
	perProbe := budget / time.Duration(len(probes))

	var discard bytes.Buffer
	for i, t := range sample {
		root := tr.open("request", i, -1)

		var expr algebra.Expr
		var err error
		tr.time("algebra.parse", i, root, func() { expr, err = algebra.ParseForDatabase(t.query, t.db) })
		if err != nil {
			return nil, nil, err
		}
		operands := expr.Operands()
		tr.time("relation.fingerprint", i, root, func() { relation.FingerprintDatabase(t.db, operands) })

		args := make([]*relation.Relation, len(operands))
		for k, name := range operands {
			args[k] = t.db[name]
		}
		tr.time("join.admit_plan", i, root, func() {
			_ = max(join.PredictedPeakGreedy(args), join.WorstCasePeakGreedy(args))
			_ = join.AGMBoundOf(args)
		})

		shared := warm
		if w.cold {
			shared = algebra.NewSubexprCache()
		}
		var out *relation.Relation
		var collector *obs.Collector
		evalID := tr.open("algebra.eval", i, root)
		out, collector, err = evaluate(base, expr, t.db, shared, reg)
		tr.close(evalID)
		if err != nil {
			return nil, nil, err
		}
		if rootSpan := collector.Trace().Root(); rootSpan != nil {
			tr.adopt(rootSpan, i, evalID, tr.spans[evalID].Start-rootSpan.StartNanos)
		}

		tr.time("relation.sort", i, root, func() { out.Sorted() })
		discard.Reset()
		tr.time("relation.write", i, root, func() { err = relation.WriteRelation(&discard, "result", out) })
		if err != nil {
			return nil, nil, err
		}
		tr.close(root)

		// Beside the request path: the planner's parts on the root join's
		// inputs, and the decode of the tenant's upload.
		probeRoot := tr.open("probes", i, -1)
		if j, ok := expr.(*algebra.Join); ok {
			inputs := make([]*relation.Relation, len(j.Args()))
			for k, a := range j.Args() {
				if inputs[k], err = algebra.Eval(a, t.db); err != nil {
					return nil, nil, err
				}
			}
			schemes := join.SchemesOf(inputs)
			sizes := make([]int, len(inputs))
			for k, r := range inputs {
				sizes[k] = r.Len()
			}
			// What Evaluator.multi's auto selector computes on these inputs
			// before it picks a strategy; the join span's time includes it.
			tr.time("join.auto_select", i, probeRoot, func() {
				_ = join.AGMBoundOf(inputs)
				_ = max(join.PredictedPeakGreedy(inputs), join.WorstCasePeakGreedy(inputs))
			})
			tr.time("join.cover_lp", i, probeRoot, func() { join.FractionalCover(schemes, sizes) })
			tr.time("join.gyo", i, probeRoot, func() { join.JoinTreeOf(schemes) })
		}
		tr.time("relation.read", i, probeRoot, func() { _, err = relation.ReadDatabase(bytes.NewReader(t.catalog)) })
		if err != nil {
			return nil, nil, err
		}
		tr.close(probeRoot)

		rowCap := 32 * (t.inputRows + out.Len())
		for _, p := range probes {
			if p.spent >= perProbe || p.killed {
				continue
			}
			cfg := p.cfg
			if p.capped {
				cfg.limits.MaxIntermediateRows = rowCap
			}
			start := time.Now()
			_, _, err := evaluate(cfg, expr, t.db, algebra.NewSubexprCache(), reg)
			took := time.Since(start)
			p.spent += took
			switch {
			case errors.Is(err, governor.ErrRowBudget):
				p.killed = true
			case err != nil:
				return nil, nil, err
			default:
				p.times = append(p.times, ms(took))
			}
		}
	}

	layer := func(name string, self bool) metric {
		return metric{Value: median(tr.perRequest(name, self)), Unit: "ms"}
	}
	probeMs := map[string]float64{}
	for _, p := range probes {
		if !p.killed {
			probeMs[p.name] = median(p.times)
		}
	}
	best := 0.0
	for _, name := range []string{"hash", "wcoj", "yannakakis"} {
		if v := probeMs[name]; v > 0 && (best == 0 || v < best) {
			best = v
		}
	}
	out := map[string]metric{
		"algebra.parse_ms":             layer("algebra.parse", false),
		"algebra.eval_ms":              layer("algebra.eval", false),
		"algebra.project_ms":           layer("algebra.project", true),
		"join.admit_plan_ms":           layer("join.admit_plan", false),
		"join.auto_select_ms":          layer("join.auto_select", false),
		"join.cover_lp_ms":             layer("join.cover_lp", false),
		"join.gyo_ms":                  layer("join.gyo", false),
		"join.exec_ms":                 layer("join.exec", false),
		"relation.fingerprint_ms":      layer("relation.fingerprint", false),
		"relation.sort_ms":             layer("relation.sort", false),
		"relation.write_ms":            layer("relation.write", false),
		"relation.read_ms":             layer("relation.read", false),
		"join.hash_ms":                 {Value: probeMs["hash"], Unit: "ms"},
		"join.wcoj_ms":                 {Value: probeMs["wcoj"], Unit: "ms"},
		"join.yannakakis_ms":           {Value: probeMs["yannakakis"], Unit: "ms"},
		"join.auto_vs_best_ratio":      {Value: ratio(probeMs["auto"], best), Unit: "ratio"},
		"join.parallel2_speedup":       {Value: ratio(probeMs["base"], probeMs["parallel2"]), Unit: "ratio"},
		"governor.tick_overhead_ratio": {Value: ratio(probeMs["base"], probeMs["ungoverned"]), Unit: "ratio"},
		"obs.trace_overhead_ratio":     {Value: ratio(probeMs["base"], probeMs["untraced"]), Unit: "ratio"},
	}
	return out, tr, nil
}

// growthCurve records the paper's claim as a curve: over gadgets of m = 5,
// 7 and 9 clauses, the rows the greedy binary plan and the
// worst-case-optimal join materialize at their peak, against the rows the
// query reads and returns. Input and output grow linearly in m.
func growthCurve(seed int64, sz sizes) (map[string]metric, error) {
	out := map[string]metric{}
	rng := rand.New(rand.NewSource(seed*8 + 5))
	for _, m := range []int{5, 7, 9} {
		shapes, err := gadgetShapes(sz.shapes+int64(m), sz.curve, m)
		if err != nil {
			return nil, err
		}
		peak := map[string]float64{}
		readAndReturned := 0.0
		for _, shape := range shapes {
			c, err := reduction.New(isomorphicCopy(rng, shape))
			if err != nil {
				return nil, err
			}
			phi, err := c.PhiG()
			if err != nil {
				return nil, err
			}
			for _, strategy := range []string{"hash", "wcoj"} {
				cfg := serverConfig(strategy)
				cfg.admit = false
				res, collector, err := evaluate(cfg, phi, c.Database(), nil, nil)
				if err != nil {
					return nil, err
				}
				peak[strategy] += float64(collector.Metrics.Snapshot().MaxIntermediate)
				if strategy == "hash" {
					readAndReturned += float64(c.R.Len() + res.Len())
				}
			}
		}
		suffix := ".m" + strconv.Itoa(m)
		out["join.greedy_peak_ratio"+suffix] = metric{Value: ratio(peak["hash"], readAndReturned), Unit: "ratio"}
		out["join.wcoj_peak_ratio"+suffix] = metric{Value: ratio(peak["wcoj"], readAndReturned), Unit: "ratio"}
	}
	return out, nil
}
