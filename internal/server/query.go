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
	ev      algebra.Evaluator
	timeout time.Duration
	analyze bool // EXPLAIN ANALYZE output instead of tuples
	count   bool // cardinality only
}

// parseQueryRequest decodes the body (raw expression text) and the
// tuning query parameters.
func parseQueryRequest(r *http.Request) (*queryRequest, error) {
	body, err := readUpload(http.MaxBytesReader(nil, r.Body, maxQueryBytes), min(r.ContentLength, maxQueryBytes))
	if err != nil {
		return nil, fmt.Errorf("reading query body: %w", err)
	}
	q := &queryRequest{
		src:      strings.TrimSpace(body),
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
type planKey struct{ sig, src string }

// parse returns q's parsed expression over cat's schemes, from the parse
// cache when it is there. Expressions are immutable, so concurrent
// evaluations share one; result soundness is the subexpression cache's job
// (fingerprint keys).
func (s *Server) parse(q *queryRequest, cat *catalog) (algebra.Expr, error) {
	expr, _, err := s.plans.Do(nil, planKey{sig: cat.sig, src: q.src}, func() (algebra.Expr, error) {
		return algebra.ParseForDatabase(q.src, cat.db)
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
	if q.analyze {
		ev.Collector = &obs.Collector{} // EXPLAIN ANALYZE renders its own
		out, err := ev.EvalContext(r.Context(), expr, cat.db)
		s.metrics.evalDone(t.name)
		if err != nil {
			s.writeEvalError(w, t, err)
			return
		}
		answerHeaders(w.Header(), out.Len(), time.Since(start), q.strategy, ev.Collector)
		_, _ = io.WriteString(w, algebra.RenderTrace(ev.Collector.Trace()))
		return
	}
	o := s.response()
	o.open(w, expr, q, start)
	ev.Collector = &o.collector
	err = ev.EvalTo(r.Context(), expr, cat.db, o)
	s.metrics.evalDone(t.name)
	if err == nil {
		err = o.finish()
	}
	if errors.Is(err, errHeldPastBudget) {
		// The held text passed the memory budget, which charged the rows at
		// their width: the answer is built at that width and replayed, as
		// the query's next ask would answer it.
		o.unhold()
		if d := ev.Limits.Deadline; d > 0 {
			ev.Limits.Deadline = max(d-time.Since(start), time.Nanosecond) // the request's, not a second one
		}
		var built *relation.Relation
		if built, err = ev.EvalContext(r.Context(), expr, cat.db); err == nil {
			relation.Replay(built, o)
			err = o.finish()
		}
	}
	if err != nil {
		s.failResponse(o, t, err)
	}
	o.close()
	s.release(o)
}

// ErrorTrailer is the HTTP trailer that carries the failure of a query
// whose answer had begun to reach the client: its status code and message,
// mapped as writeEvalError maps a failure it can still answer with a status.
const ErrorTrailer = "X-Relquery-Error"

// answerHeaders sets the headers of a query's answer: its size, the wall
// time to it, the strategy asked for and the shared-cache hits so far.
func answerHeaders(h http.Header, rows int, wall time.Duration, strategy string, c *obs.Collector) {
	h.Set("X-Relquery-Rows", strconv.Itoa(rows))
	h.Set("X-Relquery-Wall", wall.String())
	h.Set("X-Relquery-Strategy", strategy)
	h.Set("X-Relquery-Cache-Hits", strconv.FormatInt(c.M().Snapshot().CacheHits, 10))
	h.Set("Content-Type", "text/plain; charset=utf-8")
}

// responseBuffer is the response buffer's size: an answer under it
// reaches the ResponseWriter in one write once the evaluation is over.
const responseBuffer = 32 << 10

// response takes a query response, with its buffer, off the server's free
// list, or makes one when the list is empty.
func (s *Server) response() *response {
	select {
	case o := <-s.responses:
		return o
	default:
		o := new(response)
		o.buf = bufio.NewWriterSize(o, responseBuffer)
		return o
	}
}

// release puts a detached response (close) back on the free list, so the
// list never pins a ResponseWriter — or the connection behind it — past its
// request. A full list drops it: the list holds at most one response per
// evaluation slot, and unlike a sync.Pool a GC does not empty it. Nor does
// it keep a held answer's text past responseBuffer: a large answer's side
// buffer goes with its request.
func (s *Server) release(o *response) {
	if cap(o.held.text) > responseBuffer {
		o.held.text = nil
	}
	select {
	case s.responses <- o:
	default:
	}
}

// response is a query's answer on its way to the client, and the
// relation.Sink EvalTo writes it into. Begin sets the headers and, unless
// only the count is wanted, writes the comment lines and the block's
// header lines; Row writes a row, in the relation codec's block form,
// reloadable through the upload path. Everything goes through one buffer
// that writes into the ResponseWriter only when it fills and at the end,
// so until the first 32 KB of an answer the status is still open: a
// failure before then is answered as if the answer had been built first
// (failResponse).
//
// An answer whose count Begin does not know is held: the headers and the
// header lines wait for the count, the rows' text collects in a side
// buffer, and finish writes it all in the same order, so the bytes are
// the same. Nothing of a held answer reaches the client before its last
// row, and every failure gets its status.
type response struct {
	w     http.ResponseWriter
	buf   *bufio.Writer // writes into the response itself (Write)
	block relation.BlockWriter
	sent  bool // the buffer has written to w: the status line is out

	expr      algebra.Expr
	strategy  string
	collector obs.Collector // the query's trace, Reset by open: the registry keeps a copy
	start     time.Time
	count     bool // ?count=: the rows are not wanted, their number is
	rows      int  // Begin's count, or the rows so far of a held answer

	scheme  relation.Scheme // a held answer's, for its header lines
	holding bool            // the count is unknown until finish
	hold    *bufio.Writer   // the block's while holding: writes into held
	held    heldText
}

// heldText is a held answer's rows in block form; its buffer is reused. The
// join charged the rows at their width (relation.RowBytes), not at their
// values' length, so the text is held to the request's memory budget on
// its own: a write that would take it past the budget fails with
// errHeldPastBudget, which stops the rows, and the answer is then built
// instead (serveQuery).
type heldText struct {
	text   []byte
	budget int64 // the request's MaxMemoryBytes, 0 for none
}

var errHeldPastBudget = errors.New("server: held answer past the memory budget")

func (h *heldText) Write(p []byte) (int, error) {
	if h.budget > 0 && int64(len(h.text)+len(p)) > h.budget {
		return 0, errHeldPastBudget
	}
	h.text = append(h.text, p...)
	return len(p), nil
}

// open attaches the response to w for query q's answer to expr, with its
// collector reset for the query's trace.
func (o *response) open(w http.ResponseWriter, expr algebra.Expr, q *queryRequest, start time.Time) {
	o.w, o.sent = w, false
	o.buf.Reset(o)
	o.block = relation.BlockWriter{W: o.buf, Name: "result"}
	o.expr, o.strategy, o.start, o.count = expr, q.strategy, start, q.count
	o.collector.Reset()
	o.held.budget = q.ev.Limits.MaxMemoryBytes
}

// close detaches the response from its request, dropping anything still
// buffered.
func (o *response) close() {
	o.buf.Reset(o)
	o.w, o.expr = nil, nil
	o.unhold()
}

// unhold drops a held answer, and the text held of it, so that the
// response can take the answer again from its Begin.
func (o *response) unhold() {
	o.block = relation.BlockWriter{W: o.buf, Name: "result"}
	o.scheme, o.holding = relation.Scheme{}, false
	o.held.text = o.held.text[:0]
}

// Write passes the buffer's bytes on to the ResponseWriter, which sends
// the status line and the headers ahead of the first of them.
func (o *response) Write(p []byte) (int, error) {
	o.sent = true
	return o.w.Write(p)
}

// Begin starts the answer: its head when the count is known, else it
// holds the answer until finish, pointing the block at the side buffer.
func (o *response) Begin(scheme relation.Scheme, rows int) bool {
	if rows < 0 {
		o.scheme, o.holding, o.rows = scheme, true, 0
		if o.hold == nil {
			o.hold = bufio.NewWriter(&o.held)
		}
		o.hold.Reset(&o.held)
		o.block.W = o.hold
		return true
	}
	o.rows = rows
	return o.head(scheme)
}

// head sets the answer's headers — X-Relquery-Wall is the time to here:
// the first row when the answer streams, the last when it is held — and,
// unless only the count is wanted, writes its header lines.
func (o *response) head(scheme relation.Scheme) bool {
	answerHeaders(o.w.Header(), o.rows, time.Since(o.start), o.strategy, &o.collector)
	if o.count {
		return false
	}
	o.buf.WriteString("# ")
	o.buf.WriteString(o.expr.String())
	o.buf.WriteString("\n# ")
	o.buf.Write(strconv.AppendInt(o.buf.AvailableBuffer(), int64(o.rows), 10))
	o.buf.WriteString(" tuples over ")
	scheme.WriteText(o.buf)
	o.buf.WriteByte('\n')
	return o.block.Begin(scheme, o.rows)
}

// Row writes one row of the answer. It stops the rows once a write has
// failed: the client is gone, and there is nobody left to tell, or a held
// answer's text is past the budget. A held row is counted and, unless only
// the count is wanted, written to the side buffer.
func (o *response) Row(t relation.Tuple) bool {
	if o.holding {
		o.rows++
		if o.count {
			return true
		}
	}
	return o.block.Row(t)
}

// finish ends a complete answer: a held answer's head and rows, then the
// count or the block's end line. A held answer whose text passed the
// budget is not complete: finish returns errHeldPastBudget and writes
// nothing, and serveQuery builds the answer.
func (o *response) finish() error {
	if o.holding {
		if err := o.hold.Flush(); err != nil {
			return err
		}
		o.block.W = o.buf
		o.head(o.scheme)
		o.buf.Write(o.held.text)
	}
	if o.count {
		o.buf.Write(strconv.AppendInt(o.buf.AvailableBuffer(), int64(o.rows), 10))
		o.buf.WriteByte('\n')
	} else {
		_ = o.block.End()
	}
	_ = o.buf.Flush()
	return nil
}

// failResponse answers a query whose evaluation failed. While nothing has
// reached the client — always, for a held answer — what the buffer holds
// is dropped and the failure gets its status, as writeEvalError maps it.
// Once the first 32 KB went out with status 200, the failure can only
// follow them: the block gets no end line, and the ErrorTrailer names the
// status and the message.
func (s *Server) failResponse(o *response, t *tenant, err error) {
	o.buf.Reset(o)
	if o.sent {
		o.w.Header().Set(http.TrailerPrefix+ErrorTrailer, fmt.Sprintf("%d %v", evalStatus(err), err))
		return
	}
	h := o.w.Header()
	for _, k := range []string{"X-Relquery-Rows", "X-Relquery-Wall", "X-Relquery-Strategy", "X-Relquery-Cache-Hits"} {
		h.Del(k)
	}
	s.writeEvalError(o.w, t, err)
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

// evalStatus maps a failed evaluation to a status code: governor
// sentinels carry resource semantics (429 admission, 504 deadline, 413
// row/memory budget, 499 client cancel); a recovered engine panic is the
// server's fault, 500; everything else is the client's 400 — the engine
// rejected the query, not the server.
func evalStatus(err error) int {
	switch {
	case errors.Is(err, governor.ErrAdmission):
		return http.StatusTooManyRequests
	case errors.Is(err, governor.ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, governor.ErrRowBudget), errors.Is(err, governor.ErrMemBudget):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, governor.ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, join.ErrPanic):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeEvalError answers a failed evaluation with its evalStatus; a 429
// carries the admission numbers (writeAdmissionReject).
func (s *Server) writeEvalError(w http.ResponseWriter, t *tenant, err error) {
	if status := evalStatus(err); status != http.StatusTooManyRequests {
		writeError(w, status, "%v", err)
		return
	}
	s.writeAdmissionReject(w, t, err)
}
