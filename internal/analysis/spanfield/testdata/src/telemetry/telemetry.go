// Fixture for spanfield: a vocabulary-owning package (strict equality)
// with shadow spellings of the canonical table.
package telemetry

import "relquery/internal/obs"

// Canonical usage: constants, never literals.
var ok = map[string]any{
	obs.FieldCache:      "hit",
	obs.FieldOutputRows: 3,
}

var dup = map[string]any{
	"output_rows": 3, // want `span-field literal "output_rows" duplicates the canonical table: use obs\.FieldOutputRows`
	"algorithm":   2, // want `span-field literal "algorithm" duplicates the canonical table: use obs\.FieldAlgorithm`
}

// Series names are a reserved namespace, known or not.
const dupSeries = "relquery_evals_total" // want `series literal "relquery_evals_total" duplicates the canonical table: use obs\.SeriesEvals`

const newSeries = "relquery_bogus_total" // want `literal "relquery_bogus_total" squats on the reserved series namespace`

// Format strings carry the EXPLAIN segment shape.
const segment = " peak=%d" // want `format string hardcodes the "peak" span field: build the segment from obs\.FieldPeak`

// Unreserved words and non-key positions stay free.
var free = map[string]any{
	"name":    "eval",
	"joins":   1,
	"tenant=": "a", // tenant is not a reserved key
}
