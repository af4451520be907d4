package obs

// This file is the canonical string table for every observability name
// that crosses a package boundary: span/metric field keys (rendered by
// EXPLAIN ANALYZE in internal/algebra and exported as Chrome trace-event
// args by internal/telemetry) and Prometheus series names (written by
// internal/telemetry and internal/server, scraped by dashboards and the
// CI smoke tests). Exactly one declaration exists per name; the
// spanfield analyzer (internal/analysis/spanfield) bans stray literals
// of these names — and of anything in the relquery_*/relqueryd_* series
// namespaces — in the rendering packages, so a renamed or mistyped key
// is a build break, not a silently broken dashboard.

// Span field keys: the long forms are the JSON/trace-arg names (matching
// Span's json tags), the short forms are EXPLAIN ANALYZE's compact
// tokens. A long and short form naming the same quantity must keep
// rendering the same underlying Span field.
const (
	FieldOutputRows      = "output_rows"
	FieldSchemeWidth     = "scheme_width"
	FieldInputRows       = "input_rows"
	FieldAlgorithm       = "algorithm"
	FieldCache           = "cache"
	FieldAGMBound        = "agm_bound"
	FieldMaxIntermediate = "max_intermediate"
	FieldCandidates      = "candidates"
	FieldIntersections   = "intersections"
	FieldStructure       = "structure"
	FieldSemijoins       = "semijoins"
	FieldReducedRows     = "reduced_rows"
	FieldPlan            = "plan"
	FieldError           = "error"

	// EXPLAIN ANALYZE short tokens.
	FieldRows    = "rows"
	FieldWidth   = "width"
	FieldWall    = "wall"
	FieldInputs  = "in"
	FieldAlg     = "alg"
	FieldReduced = "reduced"
	FieldPeak    = "peak"
	FieldAGM     = "agm"
)

// Prometheus series of the engine registry (internal/telemetry's
// /metrics exposition). SeriesGovernorViolations carries the sentinel
// label; SeriesFaultFirings the injection-point label.
const (
	SeriesEvals              = "relquery_evals_total"
	SeriesJoins              = "relquery_joins_total"
	SeriesIntermediateTuples = "relquery_intermediate_tuples_total"
	SeriesTuplesBuilt        = "relquery_tuples_built_total"
	SeriesTuplesProbed       = "relquery_tuples_probed_total"
	SeriesTuplesEmitted      = "relquery_tuples_emitted_total"
	SeriesWCOJJoins          = "relquery_wcoj_joins_total"
	SeriesWCOJCandidates     = "relquery_wcoj_candidates_total"
	SeriesWCOJIntersections  = "relquery_wcoj_intersections_total"
	SeriesYannakakisJoins    = "relquery_yannakakis_joins_total"
	SeriesSemijoins          = "relquery_semijoins_total"
	SeriesSemijoinRows       = "relquery_semijoin_rows_total"
	SeriesCacheHits          = "relquery_cache_hits_total"
	SeriesCacheMisses        = "relquery_cache_misses_total"
	SeriesCacheInvalidations = "relquery_cache_invalidations_total"
	SeriesPlanFactsHits      = "relquery_plan_facts_hits_total"
	SeriesPlanFactsMisses    = "relquery_plan_facts_misses_total"
	SeriesCoverLPSolves      = "relquery_cover_lp_solves_total"
	SeriesGovernorViolations = "relquery_governor_violations_total"
	SeriesFaultFirings       = "relquery_fault_firings_total"
	SeriesPeakGauge          = "relquery_peak_intermediate_rows_gauge"
	SeriesLatencyHist        = "relquery_eval_latency_seconds"
	SeriesPeakRowsHist       = "relquery_peak_intermediate_rows"
	SeriesAGMRatioHist       = "relquery_peak_agm_ratio"
)

// Prometheus series of the relqueryd query server (internal/server
// appends these to the engine exposition).
const (
	SeriesServerRequests          = "relqueryd_requests_total"
	SeriesServerAdmissionRejects  = "relqueryd_admission_rejects_total"
	SeriesServerInflight          = "relqueryd_inflight_queries"
	SeriesServerTenantEvals       = "relqueryd_tenant_evals_total"
	SeriesServerPlanCacheHits     = "relqueryd_plan_cache_hits_total"
	SeriesServerPlanCacheMisses   = "relqueryd_plan_cache_misses_total"
	SeriesServerPlanCacheEntries  = "relqueryd_plan_cache_entries"
	SeriesServerSharedCacheHits   = "relqueryd_shared_cache_hits_total"
	SeriesServerSharedCacheMisses = "relqueryd_shared_cache_misses_total"
	SeriesServerSharedCacheInval  = "relqueryd_shared_cache_invalidations_total"
	SeriesServerSharedCacheSize   = "relqueryd_shared_cache_entries"
	SeriesServerCatalogRelations  = "relqueryd_catalog_relations"
)
