// Package server implements relqueryd, the multi-tenant query server:
// named per-tenant catalogs managed over HTTP with the relation codec,
// query submission with per-request strategy selection, and streamed
// text results — all running on the production layers the repo already
// owns. Every request is threaded through per-tenant governor.Limits
// with per-node admission control (the AGM-bound budget the paper
// motivates), a bounded worker pool of one-goroutine evaluations, a shared
// cross-request subexpression cache made sound by collision-resistant
// relation fingerprints, and a process-wide obs.Registry served by the
// embedded telemetry mux.
//
// The package closes ROADMAP item 3: Cosmadakis' hardness results are
// about arbitrary queries hitting a shared engine, and this is the
// shared engine. Admission judges the plan that runs, one join node at a
// time: a node bound for the greedy binary planner is refused before it
// runs when its predicted peak (max of the System R greedy simulation and
// the worst-case AGM greedy peak) exceeds the tenant's intermediate-row
// budget, with HTTP 429 carrying the numbers; a one-pass node (wcoj,
// yannakakis) runs under the same budget as a row check, and an acyclic
// one is refused with 413 on its exact output count before any row
// exists.
package server

import (
	"net/http"
	"sort"
	"sync"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
	"relquery/internal/telemetry"
)

// DefaultMaxConcurrent bounds concurrently executing evaluations when
// Config.MaxConcurrent is zero. Queued requests wait for a slot (or
// their context); the bound keeps a burst of heavy tenants from
// multiplying peak memory by the request count.
const DefaultMaxConcurrent = 8

// DefaultMaxBodyBytes caps catalog upload bodies when
// Config.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 64 << 20

// planCacheMax bounds resident parsed expressions, in entries. They are
// tiny: the bound only guards against a stream of distinct query texts.
const planCacheMax = 4096

// maxQueryBytes caps query text bodies: expressions are small; anything
// larger is a mistake or abuse.
const maxQueryBytes = 1 << 20

// Config assembles a Server. The zero value serves: anonymous requests
// fall to the "default" tenant with unlimited Limits, the worker pool
// defaults to DefaultMaxConcurrent, and a fresh registry is created.
type Config struct {
	// DefaultLimits governs tenants with no explicit entry in Tenants.
	// The zero Limits is unlimited.
	DefaultLimits governor.Limits
	// Tenants maps tenant names to their resource limits. Tenants not
	// listed here are created on first use with DefaultLimits.
	Tenants map[string]governor.Limits
	// Parallelism is read by nothing: the server's concurrency is
	// MaxConcurrent requests, each evaluated on its own goroutine. The field
	// stays because bench/load.go names it and bench/ is the frozen
	// benchmark contract.
	Parallelism int
	// MaxConcurrent bounds concurrently executing evaluations across all
	// tenants; 0 means DefaultMaxConcurrent, negative means unbounded.
	MaxConcurrent int
	// Registry receives every evaluation for /metrics and /debug/traces;
	// nil creates a fresh one.
	Registry *obs.Registry
	// TraceCap, when non-zero, bounds the registry's trace ring.
	TraceCap int
	// MaxBodyBytes caps catalog upload bodies; 0 means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int
}

// Server is the relqueryd HTTP server state: tenant catalogs, the
// shared caches, the worker-pool semaphore, and the telemetry registry.
// Create one with New; mount Handler on any net/http server.
type Server struct {
	cfg    Config
	reg    *obs.Registry
	shared *algebra.SubexprCache
	plans  *algebra.Memo[algebra.Expr]
	sem    chan struct{}
	// responses is the free list of query responses, each with its 32 KB
	// buffer: at most one per evaluation slot, so a GC empties nothing.
	responses chan *response

	mu      sync.RWMutex
	tenants map[string]*tenant

	metrics serverMetrics
}

// New builds a Server from cfg. Tenants named in cfg.Tenants exist
// immediately (so /v1/tenants lists them before any upload); others
// appear on first use.
func New(cfg Config) *Server {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.TraceCap != 0 {
		reg.SetTraceCap(cfg.TraceCap)
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		shared:  algebra.NewSubexprCache(),
		plans:   algebra.NewMemo[algebra.Expr](planCacheMax, nil),
		tenants: make(map[string]*tenant),
	}
	free := DefaultMaxConcurrent
	if n := cfg.MaxConcurrent; n >= 0 {
		if n == 0 {
			n = DefaultMaxConcurrent
		}
		s.sem, free = make(chan struct{}, n), n
	}
	s.responses = make(chan *response, free)
	for name, limits := range cfg.Tenants {
		s.tenants[name] = newTenant(name, limits)
	}
	return s
}

// Registry exposes the server's telemetry registry (for embedding the
// server into a process that also evaluates directly).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Load installs every relation of db into the named tenant's catalog.
// It backs the CLI's startup -load flag; runtime uploads go through the
// HTTP routes.
func (s *Server) Load(tenant string, db relation.Database) {
	s.tenant(tenant).loadAll(db)
}

// lookup returns the named tenant, or nil when there is none. An empty
// name resolves to "default".
func (s *Server) lookup(name string) *tenant {
	if name == "" {
		name = "default"
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tenants[name]
}

// tenant returns the named tenant, creating it with the default limits on
// first use. Only uploads and queries may: reads and deletes use lookup.
func (s *Server) tenant(name string) *tenant {
	if t := s.lookup(name); t != nil {
		return t
	}
	if name == "" {
		name = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[name]; t != nil {
		return t
	}
	limits, ok := s.cfg.Tenants[name]
	if !ok {
		limits = s.cfg.DefaultLimits
	}
	t := newTenant(name, limits)
	s.tenants[name] = t
	return t
}

// tenantList returns the known tenants in name order.
func (s *Server) tenantList() []*tenant {
	s.mu.RLock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// maxBody resolves the catalog upload cap.
func (s *Server) maxBody() int64 {
	if s.cfg.MaxBodyBytes > 0 {
		return int64(s.cfg.MaxBodyBytes)
	}
	return DefaultMaxBodyBytes
}

// Handler returns the relqueryd mux: the /v1 catalog and query routes
// plus the embedded telemetry surface (/metrics with relqueryd's own
// series appended, /debug/traces, /debug/pprof/*).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /v1/tenants/{tenant}/relations", s.handleListRelations)
	mux.HandleFunc("PUT /v1/tenants/{tenant}/relations/{name}", s.handlePutRelation)
	mux.HandleFunc("GET /v1/tenants/{tenant}/relations/{name}", s.handleGetRelation)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/relations/{name}", s.handleDropRelation)
	mux.HandleFunc("POST /v1/tenants/{tenant}/catalog", s.handleLoadCatalog)
	mux.HandleFunc("POST /v1/tenants/{tenant}/query", s.handleTenantQuery)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/cache/reset", s.handleCacheReset)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	// The telemetry surface shares the port: /metrics is wrapped so the
	// server's own series ride along; the debug endpoints pass through.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("/debug/", telemetry.NewHandler(s.reg))
	mux.HandleFunc("GET /{$}", s.handleIndex)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(`<html><body><h1>relqueryd</h1><ul>
<li>PUT /v1/tenants/{tenant}/relations/{name} — upload a relation (codec text)</li>
<li>POST /v1/tenants/{tenant}/catalog — load a whole database file</li>
<li>GET /v1/tenants/{tenant}/relations — list the catalog</li>
<li>POST /v1/tenants/{tenant}/query — evaluate (body: expression text)</li>
<li><a href="/metrics">/metrics</a> — Prometheus text format</li>
<li><a href="/debug/traces">/debug/traces</a> — Chrome trace-event JSON</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — runtime profiles</li>
</ul></body></html>
`))
}
