package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baseBench = `
Some header line
BenchmarkAcyclicYannakakis/path/greedy-8         10   180668 ns/op   289.0 agm_bound   257.0 peak_rows   97477 B/op   1848 allocs/op
BenchmarkAcyclicYannakakis/path/auto-8           10    38666 ns/op   289.0 agm_bound    17.00 peak_rows  29229 B/op    613 allocs/op
PASS
ok   relquery  0.024s
`

func writeBench(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseLine(t *testing.T) {
	name, metrics, ok := parseLine("BenchmarkX/a/b-16 \t 10 \t 123 ns/op \t 289.0 agm_bound \t 257.0 peak_rows")
	if !ok {
		t.Fatal("benchmark line not recognized")
	}
	if name != "BenchmarkX/a/b" {
		t.Errorf("name = %q, want CPU suffix stripped", name)
	}
	if metrics["peak_rows"] != 257 || metrics["agm_bound"] != 289 || metrics["ns/op"] != 123 {
		t.Errorf("metrics = %v", metrics)
	}
	// A sub-benchmark name ending in digits keeps them, whether go test
	// appended a CPU suffix (GOMAXPROCS > 1) or not (GOMAXPROCS = 1) —
	// which holds for "workers=8" and cannot hold for "parallel-8".
	for _, line := range []string{
		"BenchmarkX/fam/workers=8 \t 10 \t 123 ns/op",
		"BenchmarkX/fam/workers=8-2 \t 10 \t 123 ns/op",
		"BenchmarkX/fam/workers=8-16 \t 10 \t 123 ns/op",
	} {
		if name, _, ok := parseLine(line); !ok || name != "BenchmarkX/fam/workers=8" {
			t.Errorf("parseLine(%q) names it %q (ok=%v), want BenchmarkX/fam/workers=8", line, name, ok)
		}
	}
	for _, bad := range []string{"", "PASS", "ok   relquery  0.024s", "goos: linux", "peak_rows is the largest"} {
		if _, _, ok := parseLine(bad); ok {
			t.Errorf("non-benchmark line %q parsed", bad)
		}
	}
}

// TestBaselineMatchesAcrossGOMAXPROCS: a baseline recorded at one
// GOMAXPROCS must line up, row for row, with a run at another — the
// workers=1 and workers=8 rows neither collapse into one key at
// GOMAXPROCS=1 nor go missing at GOMAXPROCS=2.
func TestBaselineMatchesAcrossGOMAXPROCS(t *testing.T) {
	const one = `
BenchmarkE9/fam/sequential   10   100 ns/op
BenchmarkE9/fam/workers=1    10   110 ns/op
BenchmarkE9/fam/workers=8    10   120 ns/op
`
	two := strings.NewReplacer("sequential ", "sequential-2 ", "workers=1 ", "workers=1-2 ", "workers=8 ", "workers=8-2 ").Replace(one)
	base, cur := writeBench(t, "base.txt", one), writeBench(t, "cur.txt", two)
	rows, err := parseFile(base)
	if err != nil || len(rows) != 3 {
		t.Fatalf("GOMAXPROCS=1 file parsed into %d rows (err %v), want 3", len(rows), err)
	}
	var out bytes.Buffer
	if err := run([]string{"-metric", "ns/op", "-max-regress", "20", base, cur}, &out); err != nil {
		t.Fatalf("same numbers at GOMAXPROCS 1 and 2 did not line up: %v\n%s", err, out.String())
	}
}

func TestRunNoRegression(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	// Within 20%: 257 → 300 is +16.7%.
	cur := writeBench(t, "cur.txt", strings.Replace(baseBench, "257.0 peak_rows", "300.0 peak_rows", 1))
	var out bytes.Buffer
	if err := run([]string{"-metric", "peak_rows", "-max-regress", "20", base, cur}, &out); err != nil {
		t.Fatalf("within-threshold diff failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "no peak_rows regression") {
		t.Errorf("missing summary line:\n%s", out.String())
	}
}

func TestRunRegression(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	// 17 → 100 blows the 20% budget on the auto config.
	cur := writeBench(t, "cur.txt", strings.Replace(baseBench, "17.00 peak_rows", "100.0 peak_rows", 1))
	var out bytes.Buffer
	err := run([]string{"-metric", "peak_rows", "-max-regress", "20", "-report", "agm_bound", base, cur}, &out)
	if err == nil {
		t.Fatalf("regression not detected:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "path/auto") {
		t.Errorf("error %q does not name the regressed benchmark", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(out.String(), "agm_bound=289") {
		t.Errorf("diff output:\n%s", out.String())
	}
}

func TestRunMissingBenchmark(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	lines := strings.Split(baseBench, "\n")
	var kept []string
	for _, l := range lines {
		if !strings.Contains(l, "path/auto") {
			kept = append(kept, l)
		}
	}
	cur := writeBench(t, "cur.txt", strings.Join(kept, "\n"))
	var out bytes.Buffer
	err := run([]string{base, cur}, &out)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("dropped benchmark not reported: %v", err)
	}
}

func TestRunNewBenchmarkAllowed(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	cur := writeBench(t, "cur.txt", baseBench+
		"BenchmarkAcyclicYannakakis/star/auto-8 10 1 ns/op 5.0 peak_rows\n")
	var out bytes.Buffer
	if err := run([]string{base, cur}, &out); err != nil {
		t.Fatalf("new benchmark rejected: %v", err)
	}
	if !strings.Contains(out.String(), "new benchmark") {
		t.Errorf("new benchmark not announced:\n%s", out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	base := writeBench(t, "base.txt", baseBench)
	empty := writeBench(t, "empty.txt", "PASS\n")
	var out bytes.Buffer
	cases := [][]string{
		{},
		{base},
		{"-max-regress", "-1", base, base},
		{empty, base}, // base holds no benchmark lines
		{filepath.Join(t.TempDir(), "absent.txt"), base},
	}
	for i, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}
