// Package analysis collects relquery's custom static-analysis passes.
//
// Each analyzer machine-checks one invariant that the paper-level
// guarantees rest on but the Go type system cannot express; DESIGN.md
// ("Machine-checked invariants") documents the mapping. The passes run
// on a small stdlib-only framework (see internal/analysis/framework)
// and are driven together by cmd/relquerylint.
package analysis

import (
	"relquery/internal/analysis/errwrapcheck"
	"relquery/internal/analysis/framework"
	"relquery/internal/analysis/govloop"
	"relquery/internal/analysis/nilrecv"
	"relquery/internal/analysis/schemecanon"
	"relquery/internal/analysis/sentinelmap"
	"relquery/internal/analysis/spanfield"
	"relquery/internal/analysis/tuplealias"
)

// All returns every analyzer in the suite, in the order they report.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		errwrapcheck.Analyzer,
		govloop.Analyzer,
		nilrecv.Analyzer,
		schemecanon.Analyzer,
		sentinelmap.Analyzer,
		spanfield.Analyzer,
		tuplealias.Analyzer,
	}
}
