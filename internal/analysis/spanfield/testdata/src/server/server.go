// Fixture for spanfield outside the vocabulary-owning packages: only
// underscore-bearing keys are banned by equality, so plain JSON field
// names stay usable; tokens and series prefixes are banned everywhere.
package server

import "relquery/internal/obs"

var _ = obs.FieldRows

// Single-word keys double as ordinary JSON fields here: allowed.
var jsonFields = []string{"error", "cache", "algorithm"}

var dup = "max_intermediate" // want `span-field literal "max_intermediate" duplicates the canonical table: use obs\.FieldMaxIntermediate`

var series = "relqueryd_new_series" // want `literal "relqueryd_new_series" squats on the reserved series namespace`

var segment = " cache=%s" // want `format string hardcodes the "cache" span field: build the segment from obs\.FieldCache`

// Struct tags are schema, not rendering: exempt.
type payload struct {
	Peak int `json:"max_intermediate"`
}
