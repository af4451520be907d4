package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"relquery/internal/fault"
	"relquery/internal/obs"
	"relquery/internal/telemetry"
)

// serverMetrics holds relqueryd's own counters, appended to the /metrics
// exposition after the engine registry's series. Counters are atomics;
// the per-tenant map takes a small lock on the query path only.
type serverMetrics struct {
	requests         atomic.Int64
	admissionRejects atomic.Int64
	inflight         atomic.Int64

	mu          sync.Mutex
	tenantEvals map[string]int64
}

func (m *serverMetrics) evalDone(tenant string) {
	m.mu.Lock()
	if m.tenantEvals == nil {
		m.tenantEvals = make(map[string]int64)
	}
	m.tenantEvals[tenant]++
	m.mu.Unlock()
}

func (m *serverMetrics) tenantCounts() (names []string, counts map[string]int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts = make(map[string]int64, len(m.tenantEvals))
	for name, n := range m.tenantEvals {
		names = append(names, name)
		counts[name] = n
	}
	sort.Strings(names)
	return names, counts
}

// handleMetrics serves the engine registry's Prometheus exposition with
// relqueryd's server-level series appended, so one scrape covers the
// whole process.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = telemetry.WriteMetrics(w, s.reg.Snapshot(), fault.Firings())
	s.writeServerMetrics(w)
}

func (s *Server) writeServerMetrics(w io.Writer) {
	header := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	sample := func(name string, v any) {
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	header(obs.SeriesServerRequests, "counter", "HTTP requests handled by the query endpoint.")
	sample(obs.SeriesServerRequests, s.metrics.requests.Load())

	header(obs.SeriesServerAdmissionRejects, "counter", "Queries whose join node the tenant budget refused before it ran (HTTP 429).")
	sample(obs.SeriesServerAdmissionRejects, s.metrics.admissionRejects.Load())

	header(obs.SeriesServerInflight, "gauge", "Queries currently holding a worker-pool slot.")
	sample(obs.SeriesServerInflight, s.metrics.inflight.Load())

	header(obs.SeriesServerTenantEvals, "counter", "Completed evaluations by tenant.")
	names, counts := s.metrics.tenantCounts()
	for _, name := range names {
		fmt.Fprintf(w, "%s{tenant=%q} %d\n", obs.SeriesServerTenantEvals, name, counts[name])
	}

	ph, pm, _, pe, _ := s.plans.Counters()
	header(obs.SeriesServerPlanCacheHits, "counter", "Plan cache hits (parsed expression reused).")
	sample(obs.SeriesServerPlanCacheHits, ph)
	header(obs.SeriesServerPlanCacheMisses, "counter", "Plan cache misses.")
	sample(obs.SeriesServerPlanCacheMisses, pm)
	header(obs.SeriesServerPlanCacheEntries, "gauge", "Resident parsed plans.")
	sample(obs.SeriesServerPlanCacheEntries, pe)

	hits, misses, invalidations, entries := s.shared.Counters()
	header(obs.SeriesServerSharedCacheHits, "counter", "Shared subexpression cache hits across requests.")
	sample(obs.SeriesServerSharedCacheHits, hits)
	header(obs.SeriesServerSharedCacheMisses, "counter", "Shared subexpression cache misses.")
	sample(obs.SeriesServerSharedCacheMisses, misses)
	header(obs.SeriesServerSharedCacheInval, "counter", "Shared cache entries dropped by /v1/cache/reset or by the resident-weight bound.")
	sample(obs.SeriesServerSharedCacheInval, invalidations)
	header(obs.SeriesServerSharedCacheSize, "gauge", "Resident shared cache entries.")
	sample(obs.SeriesServerSharedCacheSize, entries)

	header(obs.SeriesServerCatalogRelations, "gauge", "Relations resident per tenant catalog.")
	for _, t := range s.tenantList() {
		fmt.Fprintf(w, "%s{tenant=%q} %d\n", obs.SeriesServerCatalogRelations, t.name, len(t.snapshot().db))
	}
}
