package analysis_test

import (
	"testing"

	"relquery/internal/analysis"
)

// TestAll checks the suite registry: every analyzer present exactly
// once, fully populated.
func TestAll(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range analysis.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if seen[a.Name] {
			t.Errorf("analyzer %s registered twice", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{
		"errwrapcheck", "govloop", "nilrecv",
		"schemecanon", "sentinelmap", "spanfield", "tuplealias",
	} {
		if !seen[name] {
			t.Errorf("analyzer %s missing from suite", name)
		}
	}
}
