package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// StatusClientClosedRequest is the nginx-convention status for a client
// that went away mid-evaluation; the governor surfaces it as
// ErrCanceled. The write usually reaches nobody, but logs and tests see
// a distinct code.
const StatusClientClosedRequest = 499

// TenantHeader names the query's tenant on the un-scoped /v1/query
// route; the ?tenant= query parameter and the tenant-scoped route
// override it.
const TenantHeader = "X-Relquery-Tenant"

// queryRequest is one parsed query submission.
type queryRequest struct {
	src      string
	strategy string // one of join.StrategyNames
	// ev is the request's one evaluator: ?strategy= and ?order= configure it
	// here, serveQuery adds what the server and the tenant decide.
	ev       algebra.Evaluator
	timeout  time.Duration
	analyze  bool // EXPLAIN ANALYZE output instead of tuples
	count    bool // cardinality only
	optimize bool
}

// parseQueryRequest decodes the body (raw expression text) and the
// tuning query parameters.
func parseQueryRequest(r *http.Request) (*queryRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxQueryBytes))
	if err != nil {
		return nil, fmt.Errorf("reading query body: %w", err)
	}
	q := &queryRequest{
		src:      strings.TrimSpace(string(body)),
		strategy: "auto",
	}
	q.ev.Order = join.Greedy
	if q.src == "" {
		return nil, errors.New("empty query body (POST the expression text, e.g. pi[A C](pi[A B](T) * pi[B C](T)))")
	}
	params := r.URL.Query()
	if v := params.Get("strategy"); v != "" {
		q.strategy = v
	}
	if err := q.ev.SetStrategy(q.strategy); err != nil {
		return nil, fmt.Errorf("strategy: %w", err)
	}
	if v := params.Get("order"); v != "" {
		order, err := join.OrderByName(v)
		if err != nil {
			return nil, fmt.Errorf("order: %w", err)
		}
		q.ev.Order = order
	}
	if v := params.Get("timeout"); v != "" {
		d, err := governor.ParseTimeout(v)
		if err != nil {
			return nil, err
		}
		q.timeout = d
	}
	switch v := params.Get("explain"); v {
	case "", "none":
	case "analyze":
		q.analyze = true
	default:
		return nil, fmt.Errorf("explain: unknown mode %q (want analyze)", v)
	}
	if q.count, err = boolParam(params, "count"); err != nil {
		return nil, err
	}
	if q.optimize, err = boolParam(params, "optimize"); err != nil {
		return nil, err
	}
	return q, nil
}

// boolParam reads an on/off query parameter: absent or empty is off.
func boolParam(params url.Values, name string) (bool, error) {
	v := params.Get(name)
	if v == "" {
		return false, nil
	}
	on, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("%s: %q is not a boolean (want 1, 0, true or false)", name, v)
	}
	return on, nil
}

// limitsFor tightens the tenant's limits with the request's own timeout:
// a request may shorten its deadline, never extend the tenant's.
func (q *queryRequest) limitsFor(t *tenant) governor.Limits {
	l := t.limits
	if q.timeout > 0 && (l.Deadline == 0 || q.timeout < l.Deadline) {
		l.Deadline = q.timeout
	}
	return l
}

// planKey keys the parse cache: parsing depends only on the query text and
// the schemes it references, so content changes don't invalidate a parse,
// schema changes do. Both strings are ones the request already holds.
type planKey struct {
	sig, src string
	optimize bool
}

// parse returns q's parsed (and optionally optimized) expression over cat's
// schemes, from the parse cache when it is there. Expressions are immutable,
// so concurrent evaluations share one; result soundness is the subexpression
// cache's job (fingerprint keys).
func (s *Server) parse(q *queryRequest, cat *catalog) (algebra.Expr, error) {
	expr, _, err := s.plans.Do(nil, planKey{sig: cat.sig, src: q.src, optimize: q.optimize}, func() (algebra.Expr, error) {
		e, err := algebra.ParseForDatabase(q.src, cat.db)
		if err != nil || !q.optimize {
			return e, err
		}
		return algebra.Optimize(e)
	})
	return expr, err
}

// admissionReject is the HTTP 429 body: the predicted-peak and AGM
// numbers the budget decision was made on, so a rejected tenant can see
// exactly how far over budget the query was.
type admissionReject struct {
	Error         string  `json:"error"`
	Tenant        string  `json:"tenant"`
	PredictedPeak float64 `json:"predicted_peak_rows"`
	AGMBound      float64 `json:"agm_bound_rows"`
	Budget        int     `json:"budget_intermediate_rows"`
}

// handleQuery serves POST /v1/query, resolving the tenant from the
// ?tenant= parameter or the X-Relquery-Tenant header.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("tenant")
	if name == "" {
		name = r.Header.Get(TenantHeader)
	}
	s.serveQuery(w, r, s.tenant(name))
}

// handleTenantQuery serves POST /v1/tenants/{tenant}/query.
func (s *Server) handleTenantQuery(w http.ResponseWriter, r *http.Request) {
	s.serveQuery(w, r, s.tenant(r.PathValue("tenant")))
}

// serveQuery runs one query for one tenant: parse (plan cache), queue
// (worker pool), evaluate (on this goroutine, over the shared subexpression
// cache, published to the registry, each join node admitted against the
// tenant budget before it runs), stream the result.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, t *tenant) {
	s.metrics.requests.Add(1)
	q, err := parseQueryRequest(r)
	if err != nil {
		bodyError(w, err)
		return
	}
	cat := t.snapshot()
	expr, err := s.parse(q, cat)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ev := &q.ev
	ev.SharedCache = s.shared
	ev.Collector = &obs.Collector{}
	ev.Registry = s.reg
	ev.Limits = q.limitsFor(t)
	ev.Admit = true

	// Worker pool: bound concurrently executing evaluations. Waiters hold
	// no engine resources; a context that dies in the queue costs 503.
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable, "queued too long for a worker slot: %v", r.Context().Err())
			return
		}
	}
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	start := time.Now()
	out, err := ev.EvalContext(r.Context(), expr, cat.db)
	wall := time.Since(start)
	s.metrics.evalDone(t.name)
	if err != nil {
		s.writeEvalError(w, t, err)
		return
	}

	w.Header().Set("X-Relquery-Rows", strconv.Itoa(out.Len()))
	w.Header().Set("X-Relquery-Wall", wall.String())
	w.Header().Set("X-Relquery-Strategy", q.strategy)
	snap := ev.Collector.Metrics.Snapshot()
	w.Header().Set("X-Relquery-Cache-Hits", strconv.FormatInt(snap.CacheHits, 10))
	switch {
	case q.analyze:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, algebra.RenderTrace(ev.Collector.Trace()))
	case q.count:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d\n", out.Len())
	default:
		streamResult(w, expr, out)
	}
}

// writeAdmissionReject answers 429 for a join node the engine's admission
// gate refused, with the numbers the *governor.AdmissionError in err's
// chain was decided on.
func (s *Server) writeAdmissionReject(w http.ResponseWriter, t *tenant, err error) {
	s.metrics.admissionRejects.Add(1)
	body := admissionReject{Error: err.Error(), Tenant: t.name, Budget: t.limits.MaxIntermediateRows}
	var ae *governor.AdmissionError
	if errors.As(err, &ae) {
		body.PredictedPeak, body.AGMBound = ae.PredictedPeak, ae.AGMBound
	}
	writeJSON(w, http.StatusTooManyRequests, body)
}

// writeEvalError maps a failed evaluation to a status code: governor
// sentinels carry resource semantics (429 admission, 504 deadline, 413
// row/memory budget, 499 client cancel); a recovered engine panic is the
// server's fault, 500; everything else is the client's 400 — the engine
// rejected the query, not the server.
func (s *Server) writeEvalError(w http.ResponseWriter, t *tenant, err error) {
	switch {
	case errors.Is(err, governor.ErrAdmission):
		s.writeAdmissionReject(w, t, err)
	case errors.Is(err, governor.ErrDeadline):
		writeError(w, http.StatusGatewayTimeout, "%v", err)
	case errors.Is(err, governor.ErrRowBudget), errors.Is(err, governor.ErrMemBudget):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	case errors.Is(err, governor.ErrCanceled):
		writeError(w, StatusClientClosedRequest, "%v", err)
	case errors.Is(err, join.ErrPanic):
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// responseWriters pools the 4 KB buffers results are streamed through. A
// pooled writer is always reset to nil, so the pool never pins a
// ResponseWriter — or the connection behind it — past its request.
var responseWriters = sync.Pool{New: func() any { return bufio.NewWriter(nil) }}

// streamResult writes the result in the relation codec's block form —
// reloadable through the same upload path — flushing every flushEvery
// rows so large results stream instead of buffering whole.
func streamResult(w http.ResponseWriter, expr algebra.Expr, out *relation.Relation) {
	bw := responseWriters.Get().(*bufio.Writer)
	streamThrough(bw, w, expr, out)
	responseWriters.Put(bw)
}

// streamThrough is streamResult through the given buffer, which it points
// at w for exactly as long as it runs.
func streamThrough(bw *bufio.Writer, w http.ResponseWriter, expr algebra.Expr, out *relation.Relation) {
	const flushEvery = 1024
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	flush := func() {}
	if flusher, ok := w.(http.Flusher); ok {
		flush = flusher.Flush
	}
	bw.Reset(w)
	defer bw.Reset(nil)
	// The codec buffers through bw too (bufio.NewWriter returns a
	// bufio.Writer it is handed), so header and block share one buffer.
	fmt.Fprintf(bw, "# %s\n# %d tuples over %v\n", expr, out.Len(), out.Scheme())
	// The status line is on the wire; a failed write means the client is
	// gone, and there is nobody left to tell.
	_ = relation.StreamRelation(bw, "result", out, flushEvery, flush)
}
