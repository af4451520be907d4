package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"relquery/internal/analysis"
	"relquery/internal/analysis/framework"
)

// chdirModuleRoot moves the test into the module root (restored on
// cleanup) so ./... means the whole module, as it does for users.
func chdirModuleRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := framework.ModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// TestSuiteCleanOnModule is the self-run gate: the whole module must
// lint clean. A regression that reintroduces a banned pattern fails here
// (and in `make lint` / CI) with the offending position on stdout.
func TestSuiteCleanOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	chdirModuleRoot(t)
	var out bytes.Buffer
	if code := run([]string{"./..."}, &out); code != 0 {
		t.Fatalf("relquerylint ./... = exit %d, want 0:\n%s", code, out.String())
	}
}

// TestSARIFOnModule checks the SARIF report shape on a clean run: one
// run, one rule per analyzer, zero results.
func TestSARIFOnModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	chdirModuleRoot(t)
	var out bytes.Buffer
	if code := run([]string{"-format", "sarif", "./..."}, &out); code != 0 {
		t.Fatalf("relquerylint -format=sarif ./... = exit %d, want 0:\n%s", code, out.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string            `json:"name"`
					Rules []json.RawMessage `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("want one SARIF 2.1.0 run, got version %q with %d runs", log.Version, len(log.Runs))
	}
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(analysis.All()); got != want {
		t.Errorf("SARIF rules = %d, want one per analyzer (%d)", got, want)
	}
	if n := len(log.Runs[0].Results); n != 0 {
		t.Errorf("clean module produced %d SARIF results, want 0", n)
	}
}

func TestListFlag(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-list"}, &out); code != 0 {
		t.Fatalf("relquerylint -list = exit %d, want 0", code)
	}
	for _, name := range []string{"govloop", "nilrecv", "sentinelmap", "spanfield"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
}

func TestBadFlag(t *testing.T) {
	if code := run([]string{"-no-such-flag"}, nil); code != 2 {
		t.Fatalf("bad flag = exit %d, want 2", code)
	}
}

func TestBadFormat(t *testing.T) {
	if code := run([]string{"-format", "xml"}, nil); code != 2 {
		t.Fatalf("bad format = exit %d, want 2", code)
	}
}

func TestBadPattern(t *testing.T) {
	chdirModuleRoot(t)
	if code := run([]string{"./no/such/dir/..."}, nil); code != 2 {
		t.Fatalf("bad pattern = exit %d, want 2", code)
	}
}
