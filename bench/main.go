// Command relbench measures relqueryd end to end and layer by layer: it
// starts real internal/server instances on loopback, drives five named
// workloads closed-loop, checks every answer against an independent
// oracle, and replays a sample of the same requests through the layers.
// BENCHMARK.json at the repository root describes what it reports;
// README.md says why each workload and metric exists.
//
// Run it from the repository root:
//
//	go run ./bench --workload cyclic_auto --seed 1 --seconds 12 --trace 0
//	go run ./bench -seed 1 -out bench/out     # every workload, interleaved
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// result is one workload's outcome in the results file.
type result struct {
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Passes     int                `json:"passes"`
	Problems   []string           `json:"problems,omitempty"`
	EndToEnd   map[string]metric  `json:"end_to_end"`
	PerLayer   map[string]metric  `json:"per_layer,omitempty"`
	SelfShares map[string]float64 `json:"replay_self_time_shares,omitempty"`
}

// correct reports whether every answer passed the oracle and the server
// refused and killed nothing.
func (r *result) correct() bool {
	if r.Failed != 0 {
		return false
	}
	for _, name := range []string{"server.admission_rejects", "governor.violations"} {
		if m, ok := r.PerLayer[name]; ok && m.Value != 0 {
			return false
		}
	}
	return true
}

// results is the file -out writes and -compare reads.
type results struct {
	Meta      map[string]string  `json:"meta"`
	Workloads map[string]*result `json:"workloads"`
}

// options is one invocation's settings.
type options struct {
	seed    int64
	seconds float64 // measured time per workload; 0 fixes the pass counts instead
	layers  bool    // report the per-layer metrics too: /metrics deltas and the traced replay
	out     string  // directory for results.json and trace.<workload>.json; empty writes nothing
	sizes   sizes
}

// measure runs the named workloads with their passes interleaved
// round-robin, so a slow stretch on a shared machine lands on all of
// them, and returns each one's result.
func measure(names []string, opt options) (map[string]*result, error) {
	runners := make([]*runner, len(names))
	defer func() {
		for _, r := range runners {
			if r != nil && r.srv != nil {
				r.srv.close()
			}
		}
	}()
	for i, name := range names {
		runners[i] = &runner{}
		if err := runners[i].setUp(name, opt.seed, opt.sizes); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
	}

	// With the replay to follow, the passes get half of the time: they give
	// the /metrics deltas and the client-side times of that line.
	loadTime := time.Duration(opt.seconds * float64(time.Second))
	replayTime := 6 * time.Second
	if opt.layers && opt.seconds > 0 {
		replayTime = loadTime / 2
		loadTime -= replayTime
	}
	done := func(r *runner) bool {
		if opt.seconds > 0 {
			return len(r.passes) >= 3 && r.measured >= loadTime
		}
		return len(r.passes) >= r.w.passes
	}
	for active := true; active; {
		active = false
		for _, r := range runners {
			if done(r) {
				continue
			}
			active = true
			if err := r.pass(); err != nil {
				return nil, fmt.Errorf("%s: %w", r.w.name, err)
			}
		}
	}

	// The growth curve does not depend on the workload: it is computed once
	// and reported with each, because every workload reports every metric.
	var curve map[string]metric
	if opt.layers {
		var err error
		if curve, err = growthCurve(opt.seed, opt.sizes); err != nil {
			return nil, fmt.Errorf("growth curve: %w", err)
		}
	}

	out := map[string]*result{}
	for _, r := range runners {
		if err := r.finish(); err != nil {
			return nil, fmt.Errorf("%s: %w", r.w.name, err)
		}
		e2e := r.endToEnd()
		res := &result{Attempted: r.attempted, Failed: r.failed, Passes: len(r.passes), Problems: r.problems, EndToEnd: e2e}
		if opt.layers {
			res.PerLayer = r.loadLayers()
			floor, err := httpFloor(r.srv, opt.sizes.floorProbes)
			if err != nil {
				return nil, err
			}
			res.PerLayer["server.http_floor_ms"] = floor
			replayed, tr, err := replay(r.w, opt.sizes.sample, replayTime)
			if err != nil {
				return nil, fmt.Errorf("%s: replay: %w", r.w.name, err)
			}
			for name, m := range replayed {
				res.PerLayer[name] = m
			}
			for name, m := range curve {
				res.PerLayer[name] = m
			}
			// What the replayed layers on the request path do not explain of
			// the end-to-end median: HTTP, the plan-cache key and the catalog
			// snapshot. The parse is left out because every measured request
			// hits the plan cache, and the sort because WriteRelation sorts too.
			explained := 0.0
			for _, name := range []string{"join.admit_plan_ms", "algebra.eval_ms", "relation.write_ms"} {
				explained += replayed[name].Value
			}
			res.PerLayer["server.residual_ms"] = metric{Value: e2e["latency_p50_ms"].Value - explained, Unit: "ms"}
			res.SelfShares = tr.selfShares()
			if opt.out != "" {
				if err := tr.write(opt.out, r.w.name); err != nil {
					return nil, err
				}
			}
		}
		out[r.w.name] = res
	}
	return out, nil
}

// httpFloor is the round trip of a request that does no work.
func httpFloor(s *liveServer, probes int) (metric, error) {
	times := make([]float64, probes)
	for i := range times {
		took, err := s.expectOK("GET", "/healthz", nil)
		if err != nil {
			return metric{}, err
		}
		times[i] = ms(took)
	}
	return metric{Value: median(times), Unit: "ms"}, nil
}

// runMeta records what produced a results file.
func runMeta(opt options) map[string]string {
	meta := map[string]string{
		"go":      runtime.Version(),
		"nproc":   fmt.Sprint(runtime.NumCPU()),
		"clients": "1",
		"seed":    fmt.Sprint(opt.seed),
		"cpu":     "unknown",
		"commit":  "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				meta["cpu"] = strings.TrimSpace(val)
				break
			}
		}
	}
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		meta["commit"] = strings.TrimSpace(string(rev))
	}
	return meta
}

// printMetrics lists metrics by name with their units.
func printMetrics(workload string, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		spread := ""
		if m.Q1 != 0 || m.Q3 != 0 {
			spread = fmt.Sprintf("  [q1 %.4g, q3 %.4g]", m.Q1, m.Q3)
		}
		fmt.Printf("%-14s %-34s %14.6g %-6s%s\n", workload, name, m.Value, m.Unit, spread)
	}
}

func writeResults(dir string, res results) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), append(data, '\n'), 0o644)
}

// specPath is the benchmark description, relative to the repository root
// the program is run from.
const specPath = "BENCHMARK.json"

func run() error {
	workload := flag.String("workload", "", "run this workload alone and end with one JSON line; empty runs all five, interleaved")
	seed := flag.Int64("seed", 1, "every input is generated from this seed")
	seconds := flag.Float64("seconds", 0, "measured time per workload; 0 runs each workload's fixed number of passes")
	traced := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	out := flag.String("out", "", "directory for results.json and trace.<workload>.json")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(specPath, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	opt := options{seed: *seed, seconds: *seconds, out: *out, sizes: reference, layers: true}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
		opt.layers = *traced != 0
	}
	measured, err := measure(names, opt)
	if err != nil {
		return err
	}

	correct := true
	for _, name := range names {
		res := measured[name]
		correct = correct && res.correct()
		for _, p := range res.Problems {
			fmt.Fprintf(os.Stderr, "relbench: %s: %s\n", name, p)
		}
		printMetrics(name, res.EndToEnd)
		printMetrics(name, res.PerLayer)
	}
	if *out != "" {
		if err := writeResults(*out, results{Meta: runMeta(opt), Workloads: measured}); err != nil {
			return err
		}
	}
	if *workload != "" {
		if err := printDriverLine(measured[*workload], opt.layers, correct); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("an answer failed the oracle, or the server refused or killed a request")
	}
	return nil
}

// printDriverLine prints the line the benchmark driver reads: value and
// unit only, of the end-to-end metrics BENCHMARK.json bounds or, with
// layers set, of the per-layer metrics and the end-to-end metrics it lists
// beside them because it cannot bound them (issueBounds).
func printDriverLine(res *result, layers, correct bool) error {
	type plain struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]plain `json:"metrics"`
	}{correct, res.Attempted, res.Failed, map[string]plain{}}
	if layers {
		for name, m := range res.PerLayer {
			line.Metrics[name] = plain{m.Value, m.Unit}
		}
	}
	for name, m := range res.EndToEnd {
		if _, unbounded := issueBound(name); unbounded == layers {
			line.Metrics[name] = plain{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "relbench:", err)
		os.Exit(1)
	}
}
