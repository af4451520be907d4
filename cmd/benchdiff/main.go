// Command benchdiff compares two Go benchmark output files on a custom
// ReportMetric column and fails when any benchmark regressed beyond a
// threshold. CI uses it to gate the wcoj and acyclic bench baselines:
//
//	benchdiff -metric peak_rows -max-regress 20 BENCH_wcoj.txt fresh.txt
//
// A regression is current > base·(1 + max-regress/100) on the watched
// metric. Benchmarks present only in the current file are reported as
// new; benchmarks that disappeared from the current file are an error —
// losing a baseline silently is how regressions sneak in.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		metric     = fs.String("metric", "peak_rows", "benchmark metric column to gate on")
		maxRegress = fs.Float64("max-regress", 20, "maximum allowed regression of the gated metric, in percent")
		report     = fs.String("report", "", "comma-separated extra metrics to print alongside the diff")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [flags] <base-file> <current-file>")
	}
	if *maxRegress < 0 {
		return fmt.Errorf("-max-regress must be non-negative, got %v", *maxRegress)
	}
	base, err := parseFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := parseFile(fs.Arg(1))
	if err != nil {
		return err
	}
	if len(base) == 0 {
		return fmt.Errorf("%s holds no benchmark lines with metric %q", fs.Arg(0), *metric)
	}

	var extras []string
	if *report != "" {
		extras = strings.Split(*report, ",")
	}
	var regressions, missing []string
	for _, name := range sortedNames(base) {
		bm, ok := base[name][*metric]
		if !ok {
			continue
		}
		cm, ok := cur[name][*metric]
		if !ok {
			missing = append(missing, name)
			continue
		}
		delta := 0.0
		if bm != 0 {
			delta = (cm - bm) / bm * 100
		} else if cm > 0 {
			delta = 100
		}
		status := "ok"
		if cm > bm*(1+*maxRegress/100) {
			status = "REGRESSED"
			regressions = append(regressions, name)
		}
		line := fmt.Sprintf("%-60s %s %12g -> %-12g (%+.1f%%) %s", name, *metric, bm, cm, delta, status)
		for _, ex := range extras {
			if v, ok := cur[name][strings.TrimSpace(ex)]; ok {
				line += fmt.Sprintf("  %s=%g", strings.TrimSpace(ex), v)
			}
		}
		fmt.Fprintln(out, line)
	}
	for _, name := range sortedNames(cur) {
		if _, ok := base[name]; !ok {
			fmt.Fprintf(out, "%-60s new benchmark\n", name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("benchmarks missing from current run: %s", strings.Join(missing, ", "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%s regressed beyond %g%% on: %s", *metric, *maxRegress, strings.Join(regressions, ", "))
	}
	fmt.Fprintf(out, "no %s regression beyond %g%%\n", *metric, *maxRegress)
	return nil
}

// parseFile reads Go benchmark output and returns, per benchmark name
// (iteration-count suffix stripped is not needed — names are the first
// field), the map of metric unit → value.
func parseFile(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, metrics, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		out[name] = metrics
	}
	return out, sc.Err()
}

// parseLine decodes one "BenchmarkX-8  10  123 ns/op  257.0 peak_rows"
// line into its name (CPU suffix stripped) and unit → value map.
//
// go test appends "-<GOMAXPROCS>" to a benchmark's name, except at
// GOMAXPROCS=1, where it appends nothing — so a trailing "-N" is taken
// for that suffix, and a sub-benchmark must not itself be named
// "…-<digits>": at GOMAXPROCS=1 "parallel-1" and "parallel-8" would both
// parse as "parallel". Say "workers=8" instead.
func parseLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	metrics := map[string]float64{}
	// fields[1] is the iteration count; then value/unit pairs follow.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return "", nil, false
	}
	return name, metrics, true
}

func sortedNames(m map[string]map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
