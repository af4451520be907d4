package framework

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// SARIF 2.1.0 output: the minimal static-analysis interchange subset —
// one run, one rule per analyzer, one result per diagnostic, every
// result at level "error" — that GitHub code scanning and SARIF viewers
// accept.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// RelPath returns path relative to root in slash form, or path
// unchanged when it does not sit under root. SARIF artifact URIs use this
// form so reports are stable across checkouts.
func RelPath(root, path string) string {
	if root == "" {
		return filepath.ToSlash(path)
	}
	rel, err := filepath.Rel(root, path)
	if err != nil || rel == ".." || len(rel) > 1 && rel[:3] == ".."+string(filepath.Separator) {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}

// WriteSARIF writes the diagnostics as one SARIF 2.1.0 run for the given
// analyzer suite. File paths are reported relative to
// root with uriBaseId %SRCROOT%, the SARIF convention for
// repository-relative locations.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, diags []Diagnostic, root string) error {
	driver := sarifDriver{Name: "relquerylint"}
	ruleIndex := make(map[string]int, len(analyzers))
	for _, a := range analyzers {
		ruleIndex[a.Name] = len(driver.Rules)
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}

	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		idx, ok := ruleIndex[d.Analyzer]
		if !ok {
			// Diagnostics from analyzers outside the suite still get a
			// rule so the log stays self-contained.
			idx = len(driver.Rules)
			ruleIndex[d.Analyzer] = idx
			driver.Rules = append(driver.Rules, sarifRule{
				ID:               d.Analyzer,
				ShortDescription: sarifMessage{Text: d.Analyzer},
			})
		}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			RuleIndex: idx,
			Level:     "error",
			Message:   sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{
						URI:       RelPath(root, d.Pos.Filename),
						URIBaseID: "%SRCROOT%",
					},
					Region: sarifRegion{
						StartLine:   d.Pos.Line,
						StartColumn: d.Pos.Column,
					},
				},
			}},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	})
}
