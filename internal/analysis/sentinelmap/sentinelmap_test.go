package sentinelmap_test

import (
	"testing"

	"relquery/internal/analysis/framework"
	"relquery/internal/analysis/sentinelmap"
)

// srvpanic is the seeded bug behind the join.ErrPanic rule: the five
// governor sentinels mapped, the recovered panic left to the catch-all.
func TestSentinelmap(t *testing.T) {
	framework.RunFixtures(t, "testdata", sentinelmap.Analyzer, "srv", "srvpanic")
}

// TestSentinelmapClean is the negative fixture: a complete mapping with
// ordered writes produces no findings.
func TestSentinelmapClean(t *testing.T) {
	framework.RunFixtures(t, "testdata", sentinelmap.Analyzer, "srvok")
}
