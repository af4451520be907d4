package telemetry

// Test files may assert on rendered output verbatim: the analyzer
// skips them, so these literals produce no findings.
const rendered = "output_rows=3 algorithm=hash relquery_evals_total"
