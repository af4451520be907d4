package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"relquery/internal/fault"
	"relquery/internal/obs"
)

// counterSeries maps a MetricsSnapshot field to a Prometheus series.
// MaxIntermediate is deliberately absent: it is a max-fold, not a
// counter, and the peak_intermediate_rows histogram carries the
// distribution instead.
type counterSeries struct {
	name string
	help string
	get  func(m obs.MetricsSnapshot) int64
}

var counters = []counterSeries{
	{obs.SeriesJoins, "Join node evaluations.", func(m obs.MetricsSnapshot) int64 { return m.Joins }},
	{obs.SeriesIntermediateTuples, "Tuples materialized in intermediate relations.", func(m obs.MetricsSnapshot) int64 { return m.IntermediateTuples }},
	{obs.SeriesTuplesBuilt, "Tuples inserted into join build sides.", func(m obs.MetricsSnapshot) int64 { return m.TuplesBuilt }},
	{obs.SeriesTuplesProbed, "Tuples driven through join probe sides.", func(m obs.MetricsSnapshot) int64 { return m.TuplesProbed }},
	{obs.SeriesTuplesEmitted, "Tuples emitted by join operators.", func(m obs.MetricsSnapshot) int64 { return m.TuplesEmitted }},
	{obs.SeriesWCOJJoins, "Worst-case-optimal generic joins.", func(m obs.MetricsSnapshot) int64 { return m.WCOJJoins }},
	{obs.SeriesWCOJCandidates, "Candidate values enumerated by generic joins.", func(m obs.MetricsSnapshot) int64 { return m.WCOJCandidates }},
	{obs.SeriesWCOJIntersections, "Attribute intersections performed by generic joins.", func(m obs.MetricsSnapshot) int64 { return m.WCOJIntersections }},
	{obs.SeriesYannakakisJoins, "Acyclic joins evaluated via Yannakakis.", func(m obs.MetricsSnapshot) int64 { return m.YannakakisJoins }},
	{obs.SeriesSemijoins, "Semijoin passes (Yannakakis sweeps and prefilters).", func(m obs.MetricsSnapshot) int64 { return m.Semijoins }},
	{obs.SeriesSemijoinRows, "Rows removed by semijoin passes.", func(m obs.MetricsSnapshot) int64 { return m.SemijoinRows }},
	{obs.SeriesCacheHits, "Subexpression cache hits.", func(m obs.MetricsSnapshot) int64 { return m.CacheHits }},
	{obs.SeriesCacheMisses, "Subexpression cache misses.", func(m obs.MetricsSnapshot) int64 { return m.CacheMisses }},
	{obs.SeriesCacheInvalidations, "Subexpression cache entries invalidated.", func(m obs.MetricsSnapshot) int64 { return m.CacheInvalidations }},
}

// WriteMetrics writes the registry snapshot and fault firing counters in
// the Prometheus text exposition format (version 0.0.4). Every governor
// sentinel and every fault injection point is always emitted, at zero if
// never tripped, so dashboards and the CI smoke test can rely on the
// series existing.
func WriteMetrics(w io.Writer, snap obs.RegistrySnapshot, firings map[fault.Point]int64) error {
	bw := bufio.NewWriter(w)

	writeHeader(bw, obs.SeriesEvals, "counter", "Evaluations observed by the registry.")
	fmt.Fprintf(bw, "%s %d\n", obs.SeriesEvals, snap.Evals)

	for _, c := range counters {
		writeHeader(bw, c.name, "counter", c.help)
		fmt.Fprintf(bw, "%s %d\n", c.name, c.get(snap.Metrics))
	}

	for _, c := range []struct {
		name, help string
		value      int64
	}{
		{obs.SeriesPlanFactsHits, "Join nodes whose planning facts were already stored.", snap.Planning.FactsHits},
		{obs.SeriesPlanFactsMisses, "Join nodes planned from nothing.", snap.Planning.FactsMisses},
		{obs.SeriesCoverLPSolves, "Fractional edge cover LPs solved while planning.", snap.Planning.CoverLPSolves},
	} {
		writeHeader(bw, c.name, "counter", c.help)
		fmt.Fprintf(bw, "%s %d\n", c.name, c.value)
	}

	writeHeader(bw, obs.SeriesGovernorViolations, "counter",
		"Governance violations by sentinel (one per tripped evaluation).")
	for _, vc := range snap.Metrics.ViolationCounts() {
		fmt.Fprintf(bw, "%s{sentinel=%q} %d\n", obs.SeriesGovernorViolations, vc.Kind, vc.Count)
	}

	writeHeader(bw, obs.SeriesFaultFirings, "counter",
		"Fault-injection crossings delivered to an injector, by point.")
	for _, p := range fault.Points() {
		fmt.Fprintf(bw, "%s{point=%q} %d\n", obs.SeriesFaultFirings, string(p), firings[p])
	}

	writeHeader(bw, obs.SeriesPeakGauge, "gauge",
		"Largest intermediate cardinality observed by any evaluation.")
	fmt.Fprintf(bw, "%s %d\n", obs.SeriesPeakGauge, snap.Metrics.MaxIntermediate)

	writeHistogram(bw, obs.SeriesLatencyHist,
		"Evaluation wall time, in seconds.", snap.Latency)
	writeHistogram(bw, obs.SeriesPeakRowsHist,
		"Per-evaluation largest intermediate cardinality.", snap.PeakRows)
	writeHistogram(bw, obs.SeriesAGMRatioHist,
		"Per-evaluation worst observed-peak / AGM-bound ratio.", snap.AGMRatio)

	return bw.Flush()
}

func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHistogram renders one HistogramSnapshot as a Prometheus histogram:
// cumulative _bucket{le} series over the non-empty buckets, the mandatory
// le="+Inf" bucket, then _sum and _count.
func writeHistogram(w io.Writer, name, help string, h obs.HistogramSnapshot) {
	writeHeader(w, name, "histogram", help)
	cum := int64(0)
	for _, b := range h.Buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b.UpperBound), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseMetrics reads Prometheus text-format exposition and returns the
// sample values keyed by series name including its label set, exactly as
// written (e.g. `relquery_governor_violations_total{sentinel="deadline"}`).
// It understands the subset this package emits — comment lines, blank
// lines, and `name[{labels}] value` samples — which is all the CI smoke
// test needs to assert the endpoint's output is well-formed.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The value is the last space-separated field; the series (name
		// plus optional label set, which may itself contain spaces inside
		// quoted label values) is everything before it.
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			return nil, fmt.Errorf("telemetry: metrics line %d: no value: %q", lineNo, line)
		}
		series, valStr := strings.TrimSpace(line[:idx]), line[idx+1:]
		if err := checkSeries(series); err != nil {
			return nil, fmt.Errorf("telemetry: metrics line %d: %w", lineNo, err)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: metrics line %d: bad value %q: %w", lineNo, valStr, err)
		}
		if math.IsNaN(v) {
			return nil, fmt.Errorf("telemetry: metrics line %d: NaN sample", lineNo)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: reading metrics: %w", err)
	}
	return out, nil
}

// checkSeries validates `name` or `name{label="value",...}`.
func checkSeries(s string) error {
	name := s
	if i := strings.IndexByte(s, '{'); i >= 0 {
		name = s[:i]
		if !strings.HasSuffix(s, "}") {
			return fmt.Errorf("unterminated label set in %q", s)
		}
	}
	if name == "" {
		return fmt.Errorf("empty metric name in %q", s)
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

// MetricNames returns the sorted series names of a ParseMetrics result,
// for diagnostics in failing tests.
func MetricNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
