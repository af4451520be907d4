package framework

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

func diag(analyzer, file string, line int, msg string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: 1},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestWriteSARIF(t *testing.T) {
	analyzers := []*Analyzer{
		{Name: "govloop", Doc: "loops must tick"},
		{Name: "nilrecv", Doc: "guard the receiver"},
	}
	diags := []Diagnostic{
		diag("govloop", "/repo/a.go", 10, "loop has no tick"),
		diag("nilrecv", "/repo/b.go", 5, "deref before guard"),
	}

	var buf bytes.Buffer
	if err := WriteSARIF(&buf, analyzers, diags, "/repo"); err != nil {
		t.Fatal(err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Level     string `json:"level"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI       string `json:"uri"`
							URIBaseID string `json:"uriBaseId"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if log.Version != "2.1.0" || log.Schema == "" {
		t.Errorf("version %q schema %q, want SARIF 2.1.0 with schema", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "relquerylint" || len(run.Tool.Driver.Rules) != 2 {
		t.Errorf("driver %q with %d rules, want relquerylint with 2", run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	for _, r := range run.Results {
		if r.Level != "error" {
			t.Errorf("result %s: level %q, want error", r.RuleID, r.Level)
		}
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
			run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result %s: ruleIndex %d does not point at its rule", r.RuleID, r.RuleIndex)
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URIBaseID != "%SRCROOT%" {
			t.Errorf("uriBaseId = %q, want %%SRCROOT%%", loc.ArtifactLocation.URIBaseID)
		}
		if loc.ArtifactLocation.URI == "" || loc.Region.StartLine == 0 {
			t.Errorf("result %s missing location: %+v", r.RuleID, loc)
		}
	}
}

// TestWriteSARIFUnknownRule: diagnostics from outside the suite still
// get a rule so the log stays self-contained.
func TestWriteSARIFUnknownRule(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSARIF(&buf, nil, []Diagnostic{diag("mystery", "/r/a.go", 1, "m")}, "/r")
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Runs []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if len(log.Runs[0].Tool.Driver.Rules) != 1 || log.Runs[0].Tool.Driver.Rules[0].ID != "mystery" {
		t.Errorf("unknown analyzer did not get an auto-added rule: %+v", log.Runs[0].Tool.Driver.Rules)
	}
}

func TestRelPath(t *testing.T) {
	cases := []struct{ root, path, want string }{
		{"/repo", "/repo/internal/a.go", "internal/a.go"},
		{"/repo", "/elsewhere/b.go", "/elsewhere/b.go"},
		{"", "/abs/c.go", "/abs/c.go"},
	}
	for _, c := range cases {
		if got := RelPath(c.root, c.path); got != c.want {
			t.Errorf("RelPath(%q, %q) = %q, want %q", c.root, c.path, got, c.want)
		}
	}
}
