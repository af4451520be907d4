package main

import (
	"fmt"
	"strings"
	"time"

	"relquery/internal/obs"
)

// setupReps is how often a run sets its workload up. The reported setup_s
// is the median, so one slow start does not decide the metric.
const setupReps = 3

// metric is one reported number. Timing metrics are computed per pass:
// value is the median over passes, q1 and q3 the quartiles.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	PerPass []float64 `json:"per_pass,omitempty"`
}

func overPasses(unit string, perPass []float64) metric {
	return metric{Value: median(perPass), Unit: unit, Q1: quantile(perPass, 0.25), Q3: quantile(perPass, 0.75), PerPass: perPass}
}

// runner carries one workload from set-up through its measured passes.
type runner struct {
	w      *workload
	srv    *liveServer
	setups []float64 // seconds per set-up
	passes []*passStats

	attempted, failed int
	problems          []string

	before, after map[string]float64 // /metrics around the measured passes
	scrapes       []float64          // ms per /metrics scrape
	measured      time.Duration      // wall time inside measured passes
}

// setUp generates the workload from the seed, starts its server, uploads
// every catalog and runs pass 0 against the oracle — setupReps times,
// keeping the last server for the measured passes.
func (r *runner) setUp(name string, seed int64, sz sizes) error {
	for rep := 0; rep < setupReps; rep++ {
		if r.srv != nil {
			r.srv.close()
			r.srv = nil
		}
		start := time.Now()
		w, err := buildWorkload(name, seed, sz)
		if err != nil {
			return err
		}
		srv, err := startServer()
		if err != nil {
			return err
		}
		r.w, r.srv = w, srv
		for _, t := range w.tenants {
			if _, err := srv.expectOK("POST", "/v1/tenants/"+t.name+"/catalog", t.catalog); err != nil {
				return err
			}
		}
		p, err := runPass(srv, w, true)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start).Seconds())
		r.count(p)
	}
	var err error
	r.before, _, err = r.srv.scrape()
	return err
}

func (r *runner) count(p *passStats) {
	r.attempted += p.attempted
	r.failed += p.failed
	if len(r.problems) < 5 {
		r.problems = append(r.problems, p.problems...)
	}
}

// pass runs one measured pass.
func (r *runner) pass() error {
	p, err := runPass(r.srv, r.w, false)
	if err != nil {
		return err
	}
	r.passes = append(r.passes, p)
	r.measured += p.wall
	r.count(p)
	return nil
}

// finish takes the closing /metrics scrape.
func (r *runner) finish() error {
	for i := 0; i < 5; i++ {
		m, took, err := r.srv.scrape()
		if err != nil {
			return err
		}
		if i == 0 {
			r.after = m
		}
		r.scrapes = append(r.scrapes, ms(took))
	}
	return nil
}

// delta is how far a /metrics series moved over the measured passes.
func (r *runner) delta(series string) float64 { return r.after[series] - r.before[series] }

// totals sums a per-pass count over the measured passes.
func (r *runner) totals(f func(*passStats) float64) float64 {
	sum := 0.0
	for _, p := range r.passes {
		sum += f(p)
	}
	return sum
}

// endToEnd computes the issue's ten end-to-end metrics: the four that
// BENCHMARK.json bounds, and the six of issueBounds.
func (r *runner) endToEnd() map[string]metric {
	per := func(f func(*passStats) float64) []float64 {
		out := make([]float64, len(r.passes))
		for i, p := range r.passes {
			out[i] = f(p)
		}
		return out
	}
	perRequest := func(f func(*passStats) float64) []float64 {
		return per(func(p *passStats) float64 { return ratio(f(p), float64(p.requests())) })
	}
	// The largest relation a request held: its peak intermediate, or its
	// answer when that came whole from the shared cache and the engine
	// built nothing. Either way the denominator is what the request read
	// and returned — the paper's input and output.
	held := max(r.delta(obs.SeriesPeakRowsHist+"_sum"), r.totals(func(p *passStats) float64 { return float64(p.outRows) }))
	readAndReturned := r.totals(func(p *passStats) float64 { return float64(p.inRows + p.outRows) })
	return map[string]metric{
		"setup_s":              overPasses("s", r.setups),
		"throughput_rps":       overPasses("req/s", per(func(p *passStats) float64 { return ratio(float64(p.requests()), p.wall.Seconds()) })),
		"latency_p50_ms":       overPasses("ms", per(func(p *passStats) float64 { return quantile(p.latency, 0.5) })),
		"latency_p90_ms":       overPasses("ms", per(func(p *passStats) float64 { return quantile(p.latency, 0.9) })),
		"cpu_ms_per_request":   overPasses("ms", perRequest(func(p *passStats) float64 { return ms(p.cpu) })),
		"alloc_kb_per_request": overPasses("KB", perRequest(func(p *passStats) float64 { return float64(p.allocBytes) / 1024 })),
		"allocs_per_request":   overPasses("count", perRequest(func(p *passStats) float64 { return float64(p.allocs) })),
		"peak_rows_ratio":      {Value: ratio(held, readAndReturned), Unit: "ratio"},
		// What the server keeps until the cache is reset.
		"retained_kb_per_request": overPasses("KB", perRequest(func(p *passStats) float64 { return float64(p.retainedBytes) / 1024 })),
		"fail_ratio":              {Value: ratio(float64(r.failed), float64(r.attempted)), Unit: "ratio"},
	}
}

// loadLayers computes the per-layer metrics that come from the measured
// passes and the /metrics deltas around them; the replay adds the rest.
func (r *runner) loadLayers() map[string]metric {
	var latency, ttfb, upload []float64
	for _, p := range r.passes {
		latency = append(latency, p.latency...)
		ttfb = append(ttfb, p.ttfb...)
		upload = append(upload, p.upload...)
	}
	queries := r.totals(func(p *passStats) float64 { return float64(p.queries) })
	hitRatio := func(hits, misses string) float64 {
		h := r.delta(hits)
		return ratio(h, h+r.delta(misses))
	}
	violations := 0.0
	for series := range r.after {
		if strings.HasPrefix(series, obs.SeriesGovernorViolations+"{") {
			violations += r.delta(series)
		}
	}
	out := map[string]metric{
		"server.latency_p99_ms":         {Value: quantile(latency, 0.99), Unit: "ms"},
		"server.ttfb_p50_ms":            {Value: median(ttfb), Unit: "ms"},
		"server.upload_p50_ms":          {Value: median(upload), Unit: "ms"},
		"server.plan_cache_hit_ratio":   {Value: hitRatio(obs.SeriesServerPlanCacheHits, obs.SeriesServerPlanCacheMisses), Unit: "ratio"},
		"server.shared_cache_hit_ratio": {Value: hitRatio(obs.SeriesServerSharedCacheHits, obs.SeriesServerSharedCacheMisses), Unit: "ratio"},
		"server.admission_rejects":      {Value: r.delta(obs.SeriesServerAdmissionRejects), Unit: "count"},
		"governor.violations":           {Value: violations, Unit: "count"},
		"telemetry.scrape_ms":           {Value: median(r.scrapes), Unit: "ms"},
		"join.share_wcoj":               {Value: ratio(r.delta(obs.SeriesWCOJJoins), queries), Unit: "ratio"},
		"join.share_yannakakis":         {Value: ratio(r.delta(obs.SeriesYannakakisJoins), queries), Unit: "ratio"},
		"join.peak_agm_ratio_p50":       {Value: r.histogramMedian(obs.SeriesAGMRatioHist), Unit: "ratio"},
		"runtime.gc_cycles":             {Value: r.totals(func(p *passStats) float64 { return float64(p.gcCycles) }), Unit: "count"},
		"runtime.gc_pause_ms":           {Value: r.totals(func(p *passStats) float64 { return ms(p.gcPause) }), Unit: "ms"},
	}
	for name, series := range map[string]string{
		"join.tuples_built":        obs.SeriesTuplesBuilt,
		"join.tuples_probed":       obs.SeriesTuplesProbed,
		"join.tuples_emitted":      obs.SeriesTuplesEmitted,
		"join.intermediate_tuples": obs.SeriesIntermediateTuples,
		"join.wcoj_candidates":     obs.SeriesWCOJCandidates,
		"join.wcoj_intersections":  obs.SeriesWCOJIntersections,
		"join.semijoins":           obs.SeriesSemijoins,
		"join.semijoin_rows":       obs.SeriesSemijoinRows,
	} {
		out[name] = metric{Value: ratio(r.delta(series), queries), Unit: "count"}
	}
	return out
}

// histogramMedian reads the median of a /metrics histogram: the upper
// bound of the bucket the middle sample fell in. It reads the closing
// scrape whole, since the exposition omits empty buckets and pass 0 sent
// the same mix as the measured passes. The registry's buckets are powers
// of two, so the value is coarse.
func (r *runner) histogramMedian(name string) float64 {
	prefix := name + `_bucket{le="`
	half := r.after[name+"_count"] / 2
	best, found := 0.0, false
	for series, cumulative := range r.after {
		if !strings.HasPrefix(series, prefix) || cumulative < half {
			continue
		}
		var le float64
		if _, err := fmt.Sscanf(series[len(prefix):], "%g", &le); err != nil {
			continue // +Inf
		}
		if !found || le < best {
			best, found = le, true
		}
	}
	return best
}
