package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// boundedMetric is an end-to-end metric with the share by which it may get
// worse before a change counts as a regression.
type boundedMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json that -compare reads.
type benchmarkSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

// issueBounds are the end-to-end metrics that BENCHMARK.json cannot bound,
// with the issue's bounds. Four are wall and CPU times: the shared box has a
// fast and a slow state about 25 % apart that last for minutes, so ten runs
// spread by as much as the 25 % a bound may be (README, "Noise"). Two can
// be 0 — no request failed; a warm pass retained nothing — and end_to_end
// may hold no such metric. BENCHMARK.json lists all six under per_layer,
// where metrics have no bound; -compare applies these to them instead.
var issueBounds = []boundedMetric{
	{Name: "throughput_rps", Better: "higher", Bound: 0.10},
	{Name: "latency_p50_ms", Better: "lower", Bound: 0.10},
	{Name: "latency_p90_ms", Better: "lower", Bound: 0.15},
	{Name: "cpu_ms_per_request", Better: "lower", Bound: 0.10},
	{Name: "retained_kb_per_request", Better: "lower", Bound: 0.05},
	{Name: "fail_ratio", Better: "lower", Bound: 0},
}

// issueBound finds a metric of issueBounds by name.
func issueBound(name string) (boundedMetric, bool) {
	for _, m := range issueBounds {
		if m.Name == name {
			return m, true
		}
	}
	return boundedMetric{}, false
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// judge compares one metric of two runs. worse is how much worse b's median
// is than a's, as a share of a's; from a median of 0 any worsening is
// without bound. The verdict is unresolved when either side's quartiles lie
// further apart than the bound, and regressed when worse exceeds it.
func judge(a, b metric, m boundedMetric) (worse float64, verdict string) {
	worse = b.Value - a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.Value != 0:
		worse /= math.Abs(a.Value)
	case worse > 0:
		worse = math.Inf(1)
	}
	spread := max(ratio(a.Q3-a.Q1, math.Abs(a.Value)), ratio(b.Q3-b.Q1, math.Abs(b.Value)))
	switch {
	case spread > m.Bound:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles applies the bounds to two results files, one row per
// workload and end-to-end metric. A regressed row makes the error.
func compareFiles(specPath, aPath, bPath string) error {
	var spec benchmarkSpec
	var a, b results
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	bounded := append(spec.EndToEnd, issueBounds...)
	regressed := 0
	fmt.Printf("%-14s %-24s %12s %12s %8s %8s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	// Every workload the files hold, also one BENCHMARK.json does not list.
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil && rb == nil {
			continue
		}
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s is missing from a results file", name)
		}
		for _, m := range bounded {
			ma, okA := ra.EndToEnd[m.Name]
			mb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s is missing from a results file", name, m.Name)
			}
			worse, verdict := judge(ma, mb, m)
			if verdict == "regressed" {
				regressed++
			}
			fmt.Printf("%-14s %-24s %12.6g %12.6g %+7.1f%% %7.1f%%  %s\n", name, m.Name, ma.Value, mb.Value, 100*worse, 100*m.Bound, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
