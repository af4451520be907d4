package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/relation"
	"relquery/internal/telemetry"
)

// chainDB builds the three-relation chain R1(A,B) ∗ R2(B,C) ∗ R3(C,D)
// used throughout the engine's governor tests: predicted greedy peak
// 12k rows, worst-case greedy peak 160k, AGM bound 240k, 12k output
// tuples — big enough that tenant budgets on either side of those
// numbers separate cleanly.
func chainDB() relation.Database {
	r1 := relation.New(relation.MustScheme("A", "B"))
	r2 := relation.New(relation.MustScheme("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	for i := 0; i < 600; i++ {
		r1.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%20)))
	}
	for j := 0; j < 400; j++ {
		r2.MustAdd(relation.TupleOf(fmt.Sprintf("b%d", j%20), fmt.Sprintf("c%d", j)))
		r3.MustAdd(relation.TupleOf(fmt.Sprintf("c%d", j), fmt.Sprintf("d%d", j)))
	}
	db := relation.NewDatabase()
	db.Put("R1", r1)
	db.Put("R2", r2)
	db.Put("R3", r3)
	return db
}

const chainQuery = "R1 * R2 * R3"

// newTestServer starts a relqueryd with two tenants on opposite sides
// of the chain workload's predicted peak — acme's budget admits it,
// free's refuses it under ?strategy=hash — plus a "slow" tenant whose
// deadline is unmeetable. Every tenant gets the same catalog.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Tenants: map[string]governor.Limits{
			"acme": {MaxIntermediateRows: 1_000_000},
			"free": {MaxIntermediateRows: 2_000},
			"slow": {Deadline: time.Nanosecond},
		},
	})
	db := chainDB()
	for _, tenant := range []string{"acme", "free", "slow"} {
		s.Load(tenant, db)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, tenant, query, params string) *http.Response {
	t.Helper()
	url := ts.URL + "/v1/tenants/" + tenant + "/query"
	if params != "" {
		url += "?" + params
	}
	resp, err := http.Post(url, "text/plain", strings.NewReader(query))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return string(b)
}

// exampleServer serves examples/relqueryd/catalog.rel as `make serve` does:
// to acme on a 10k intermediate-row budget and to free on 500. Both also get
// R4(D,E), two rows per D value of R3, which makes R1 ∗ R2 ∗ R3 ∗ R4 an
// acyclic chain of 800 rows, and T(A,B,C), 60 rows on which each pair of
// the legs of pi[A B](T) ∗ pi[B C](T) ∗ pi[A C](T) can be forced to 3 600.
func exampleServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	f, err := os.Open("../../examples/relqueryd/catalog.rel")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := relation.ReadDatabase(f)
	if err != nil {
		t.Fatal(err)
	}
	r4 := relation.New(relation.MustScheme("D", "E"))
	tri := relation.New(relation.MustScheme("A", "B", "C"))
	for i := 0; i < 60; i++ {
		if i < 40 {
			r4.MustAdd(relation.TupleOf(fmt.Sprintf("d%d", i), fmt.Sprintf("e%d", i)))
			r4.MustAdd(relation.TupleOf(fmt.Sprintf("d%d", i), fmt.Sprintf("f%d", i)))
		}
		tri.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)))
	}
	db.Put("R4", r4)
	db.Put("T", tri)
	s := New(Config{Tenants: map[string]governor.Limits{
		"acme": {MaxIntermediateRows: 10_000, Deadline: 30 * time.Second},
		"free": {MaxIntermediateRows: 500},
	}})
	s.Load("acme", db)
	s.Load("free", db)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestTwoTenantAdmission is the headline multi-tenancy property, on the
// example catalog: admission judges the plan that runs. The example query's
// greedy binary plan peaks at ≈1 600 rows, so free (budget 500) is refused
// it with 429 and the numbers under ?strategy=hash; under auto, wcoj and
// yannakakis nothing outgrows the 400-row answer, and free gets what acme
// gets. The gate refuses a node, not a query: a self-join — every query of
// the paper — is refused on its own join node's numbers, a cold acyclic
// join over budget dies with 413 on its exact count before any row exists,
// and acme's cached result is served to free without being evaluated.
func TestTwoTenantAdmission(t *testing.T) {
	const (
		example  = "pi[A D](R1 * R2 * R3)"
		selfJoin = "pi[A B](T) * pi[B C](T) * pi[A C](T)"
	)
	s, ts := exampleServer(t)
	want := readBody(t, postQuery(t, ts, "acme", example, "strategy=hash"))
	if !strings.Contains(want, "# 400 tuples") {
		t.Fatalf("acme under hash: %.120q, want 400 tuples", want)
	}

	for _, tc := range []struct {
		name, query, params string
		status              int
		warm                bool // acme has just answered the query
		peak, bound         float64
	}{
		{name: "hash", query: example, params: "strategy=hash", status: http.StatusTooManyRequests, peak: 1600, bound: 2400},
		{name: "auto", query: example, status: http.StatusOK},
		{name: "wcoj", query: example, params: "strategy=wcoj", status: http.StatusOK},
		{name: "yannakakis", query: example, params: "strategy=yannakakis", status: http.StatusOK},
		{name: "self-join", query: selfJoin, params: "strategy=hash", status: http.StatusTooManyRequests, peak: 3600},
		{name: "cold acyclic over budget", query: "R1 * R2 * R3 * R4", status: http.StatusRequestEntityTooLarge},
		{name: "acme's result", query: example, params: "strategy=hash", status: http.StatusOK, warm: true},
	} {
		s.shared.Reset()
		if tc.warm {
			postQuery(t, ts, "acme", tc.query, tc.params)
		}
		resp := postQuery(t, ts, "free", tc.query, tc.params)
		body := readBody(t, resp)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d; body: %.200s", tc.name, resp.StatusCode, tc.status, body)
			continue
		}
		switch tc.status {
		case http.StatusOK:
			if body != want {
				t.Errorf("%s: body %.120q, want acme's 400 rows", tc.name, body)
			}
			if hits := resp.Header.Get("X-Relquery-Cache-Hits"); (hits != "0") != tc.warm {
				t.Errorf("%s: X-Relquery-Cache-Hits = %s, want a hit exactly when acme answered first", tc.name, hits)
			}
		case http.StatusTooManyRequests:
			var reject admissionReject
			if err := json.Unmarshal([]byte(body), &reject); err != nil {
				t.Fatalf("%s: decoding 429 body: %v", tc.name, err)
			}
			if reject.Tenant != "free" || reject.Budget != 500 {
				t.Errorf("%s: 429 body %+v, want tenant free, budget 500", tc.name, reject)
			}
			if math.Round(reject.PredictedPeak) != tc.peak || !strings.Contains(reject.Error, fmt.Sprintf("≈%.0f rows", tc.peak)) {
				t.Errorf("%s: predicted_peak_rows %v, error %q; want ≈%v in both", tc.name, reject.PredictedPeak, reject.Error, tc.peak)
			}
			if tc.bound > 0 && math.Round(reject.AGMBound) != tc.bound || reject.AGMBound <= 0 {
				t.Errorf("%s: agm_bound_rows %v, want %v (non-zero)", tc.name, reject.AGMBound, tc.bound)
			}
		case http.StatusRequestEntityTooLarge:
			var e errorBody
			if err := json.Unmarshal([]byte(body), &e); err != nil || !strings.Contains(e.Error, "800 rows > budget 500") {
				t.Errorf("%s: 413 body %q (%v) does not quote the exact count", tc.name, body, err)
			}
			traces := s.reg.Traces()
			if peak := traces[len(traces)-1].Metrics.MaxIntermediate; peak != 0 {
				t.Errorf("%s: the refused evaluation materialized a %d-row intermediate, want none", tc.name, peak)
			}
		}
	}
	if got := s.metrics.admissionRejects.Load(); got != 2 {
		t.Errorf("admission rejects counted = %d, want 2", got)
	}
}

// TestBothGatesAnswer429WithTheirNumbers: the 429 body carries the AGM
// bound and the predicted peak the error string quotes, for a join of
// distinct relations and for a self-join alike. Both are refused by the
// engine's per-node gate and answered through writeEvalError; a self-join
// — every query of the paper — is judged on its own join node's numbers.
func TestBothGatesAnswer429WithTheirNumbers(t *testing.T) {
	s, ts := newTestServer(t)
	tri := relation.New(relation.MustScheme("A", "B", "C"))
	for i := 0; i < 60; i++ { // each pair of legs can be forced to 60·60 rows
		tri.MustAdd(relation.TupleOf(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)))
	}
	s.Load("free", relation.Single("T", tri))

	for _, tc := range []struct{ name, query, params string }{
		{"chain", chainQuery, "strategy=hash"},
		{"self-join", "pi[A B](T) * pi[B C](T) * pi[A C](T)", "strategy=hash"},
	} {
		resp := postQuery(t, ts, "free", tc.query, tc.params)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429; body: %s", tc.name, resp.StatusCode, readBody(t, resp))
		}
		var reject admissionReject
		if err := json.NewDecoder(resp.Body).Decode(&reject); err != nil {
			t.Fatalf("%s: decoding 429 body: %v", tc.name, err)
		}
		if reject.AGMBound <= 0 || reject.Budget != 2_000 || reject.Tenant != "free" {
			t.Errorf("%s: 429 body %+v, want a non-zero agm_bound_rows, budget 2000, tenant free", tc.name, reject)
		}
		quoted := fmt.Sprintf("≈%.0f rows", reject.PredictedPeak)
		if reject.PredictedPeak <= float64(reject.Budget) || !strings.Contains(reject.Error, quoted) {
			t.Errorf("%s: predicted_peak_rows = %v, error %q; want the peak the error quotes, over budget",
				tc.name, reject.PredictedPeak, reject.Error)
		}
	}
	if got := s.metrics.admissionRejects.Load(); got != 2 {
		t.Errorf("admission rejects counted = %d, want 2", got)
	}
}

// TestRepeatedQueryHitsSharedCache submits the same query three times
// and checks the shared cross-request subexpression cache served the
// third evaluation, both in the response header and in /metrics. The
// first sight of an acyclic answer streams it and stores nothing; the
// second, finding the node's plan facts, stores it (DESIGN.md, "Caching").
func TestRepeatedQueryHitsSharedCache(t *testing.T) {
	_, ts := newTestServer(t)

	var bodies []string
	var last *http.Response
	for i := 0; i < 3; i++ {
		last = postQuery(t, ts, "acme", chainQuery, "")
		if last.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i+1, last.StatusCode, readBody(t, last))
		}
		bodies = append(bodies, readBody(t, last))
		if hits := last.Header.Get("X-Relquery-Cache-Hits"); (hits != "0") != (i == 2) {
			t.Errorf("query %d: X-Relquery-Cache-Hits = %q; only the third is served from the cache", i+1, hits)
		}
	}
	if bodies[1] != bodies[0] || bodies[2] != bodies[0] {
		t.Errorf("responses differ: %d, %d and %d bytes", len(bodies[0]), len(bodies[1]), len(bodies[2]))
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	metrics, err := telemetry.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	if metrics["relquery_cache_hits_total"] <= 0 {
		t.Errorf("relquery_cache_hits_total = %v, want > 0 after a repeated query", metrics["relquery_cache_hits_total"])
	}
	if metrics["relqueryd_shared_cache_hits_total"] <= 0 {
		t.Errorf("relqueryd_shared_cache_hits_total = %v, want > 0", metrics["relqueryd_shared_cache_hits_total"])
	}
	if metrics["relqueryd_plan_cache_hits_total"] <= 0 {
		t.Errorf("relqueryd_plan_cache_hits_total = %v, want > 0 (same text parsed once)", metrics["relqueryd_plan_cache_hits_total"])
	}
	if metrics["relquery_evals_total"] < 2 {
		t.Errorf("relquery_evals_total = %v, want >= 2", metrics["relquery_evals_total"])
	}
	if metrics[`relqueryd_tenant_evals_total{tenant="acme"}`] < 2 {
		t.Errorf("tenant eval counter = %v, want >= 2", metrics[`relqueryd_tenant_evals_total{tenant="acme"}`])
	}
}

// TestDeadlineMapsToGatewayTimeout checks the governor's ErrDeadline
// surfaces as HTTP 504.
func TestDeadlineMapsToGatewayTimeout(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postQuery(t, ts, "slow", chainQuery, "")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow (1ns deadline): status %d, want 504; body: %s", resp.StatusCode, readBody(t, resp))
	}
	if body := readBody(t, resp); !strings.Contains(body, "deadline") {
		t.Errorf("504 body %q does not mention the deadline", body)
	}
}

// TestRequestTimeoutTightensOnly checks a request ?timeout= may shorten
// the tenant deadline but never extend it.
func TestRequestTimeoutTightensOnly(t *testing.T) {
	_, ts := newTestServer(t)
	// acme has no deadline: a tiny request timeout applies and kills the query.
	resp := postQuery(t, ts, "acme", chainQuery, "timeout=1ns")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("acme with ?timeout=1ns: status %d, want 504", resp.StatusCode)
	}
	// slow has a 1ns deadline: a generous request timeout must not extend it.
	resp = postQuery(t, ts, "slow", chainQuery, "timeout=10s")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow with ?timeout=10s: status %d, want 504 (request timeout must not extend tenant deadline)", resp.StatusCode)
	}
}

// TestQueryVariants exercises count and explain=analyze on an admitted
// tenant. ?count= is a boolean, not a presence flag: =0 is off. There is
// no rewrite to ask for: a projection over a join is evaluated as written,
// as one projected join node, and ?optimize= is no parameter.
func TestQueryVariants(t *testing.T) {
	_, ts := newTestServer(t)

	for _, on := range []string{"count=1", "count=true"} {
		resp := postQuery(t, ts, "acme", chainQuery, on)
		if body := strings.TrimSpace(readBody(t, resp)); body != "12000" {
			t.Errorf("?%s body = %q, want 12000", on, body)
		}
	}
	resp := postQuery(t, ts, "acme", chainQuery, "count=0")
	if body := readBody(t, resp); !strings.HasPrefix(body, "# "+chainQuery+"\n# 12000 tuples") {
		t.Errorf("?count=0 did not stream the result: %.80q", body)
	}

	// The streamed header names the evaluated expression, so it shows
	// that nothing rewrote it.
	const pushdown = "pi[A](R1 * R2)"
	header := func(params string) string {
		resp := postQuery(t, ts, "acme", pushdown, params)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("?%s: status %d: %s", params, resp.StatusCode, readBody(t, resp))
		}
		line, _, _ := strings.Cut(readBody(t, resp), "\n")
		return line
	}
	for _, params := range []string{"", "optimize=1"} {
		if got := header(params); got != "# "+pushdown {
			t.Errorf("?%s evaluated %q, want the expression as written", params, got)
		}
	}

	resp = postQuery(t, ts, "acme", chainQuery, "explain=analyze")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain=analyze: status %d", resp.StatusCode)
	}
	if body := readBody(t, resp); !strings.Contains(body, "join") {
		t.Errorf("EXPLAIN ANALYZE output does not mention a join:\n%s", body)
	}
}

// TestStrategyTable: join.StrategyNames() is the one strategy table. Every
// entry resolves and is served, nothing else is.
func TestStrategyTable(t *testing.T) {
	_, ts := newTestServer(t)

	names := join.StrategyNames()
	if want := []string{"hash", "wcoj", "yannakakis", "auto"}; !slices.Equal(names, want) {
		t.Fatalf("join.StrategyNames() = %v, want %v", names, want)
	}
	for _, name := range names {
		var ev algebra.Evaluator
		if err := ev.SetStrategy(name); err != nil {
			t.Fatalf("SetStrategy(%q): %v", name, err)
		}
		resp := postQuery(t, ts, "acme", chainQuery, "strategy="+name+"&count=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("strategy=%s: status %d: %s", name, resp.StatusCode, readBody(t, resp))
		}
		if body := strings.TrimSpace(readBody(t, resp)); body != "12000" {
			t.Errorf("strategy=%s count = %q, want 12000", name, body)
		}
	}

	for _, name := range []string{"nosuch", "nestedloop", "sortmerge", "parallel"} {
		resp := postQuery(t, ts, "acme", chainQuery, "strategy="+name)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("strategy=%s: status %d, want 400", name, resp.StatusCode)
		}
		if body := readBody(t, resp); !strings.Contains(body, "hash, wcoj, yannakakis, auto") {
			t.Errorf("strategy=%s: 400 body does not list the served strategies: %s", name, body)
		}
	}
}

// TestQueryErrors checks parse failures, empty bodies and malformed
// parameters map to 400.
func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postQuery(t, ts, "acme", "R1 * Nope", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown relation: status %d, want 400", resp.StatusCode)
	}
	resp = postQuery(t, ts, "acme", "", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", resp.StatusCode)
	}
	resp = postQuery(t, ts, "acme", "pi[", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("syntax error: status %d, want 400", resp.StatusCode)
	}
	for _, params := range []string{"count=yes", "count=on"} {
		resp = postQuery(t, ts, "acme", chainQuery, params)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", params, resp.StatusCode)
		}
	}
}

// TestUnscopedQueryRoute checks /v1/query resolves the tenant from the
// header or the ?tenant= parameter, defaulting to "default".
func TestUnscopedQueryRoute(t *testing.T) {
	_, ts := newTestServer(t)

	req, _ := http.NewRequest("POST", ts.URL+"/v1/query?strategy=hash", strings.NewReader(chainQuery))
	req.Header.Set(TenantHeader, "free")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("header tenant=free, ?strategy=hash: status %d, want 429", resp.StatusCode)
	}

	resp2, err := http.Post(ts.URL+"/v1/query?tenant=acme", "text/plain", strings.NewReader(chainQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("?tenant=acme: status %d, want 200", resp2.StatusCode)
	}
}

// TestCatalogCRUD drives the relation lifecycle over HTTP: upload, list,
// download (round-trips through the codec), drop, 404.
func TestCatalogCRUD(t *testing.T) {
	_, ts := newTestServer(t)
	base := ts.URL + "/v1/tenants/crud/relations"

	put := func(name, body string) *http.Response {
		req, _ := http.NewRequest("PUT", base+"/"+name, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := put("T", "A B\n1 2\n3 4\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT bare relation: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var info relationInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 2 || info.Scheme != "A B" || info.Fingerprint == "" {
		t.Errorf("PUT response = %+v, want 2 rows over A B with a fingerprint", info)
	}

	resp = put("T2", "relation ignored\nA B\n5 6\nend\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT block relation: status %d: %s", resp.StatusCode, readBody(t, resp))
	}

	listResp, err := http.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var listing []relationInfo
	if err := json.NewDecoder(listResp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing) != 2 || listing[0].Name != "T" || listing[1].Name != "T2" {
		t.Errorf("listing = %+v, want [T T2]", listing)
	}

	getResp, err := http.Get(base + "/T")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	_, rel, err := relation.ReadRelation(getResp.Body)
	if err != nil {
		t.Fatalf("downloaded relation does not round-trip: %v", err)
	}
	if rel.Len() != 2 {
		t.Errorf("downloaded relation has %d rows, want 2", rel.Len())
	}

	req, _ := http.NewRequest("DELETE", base+"/T", nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Errorf("DELETE: status %d, want 204", delResp.StatusCode)
	}
	missing, err := http.Get(base + "/T")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE: status %d, want 404", missing.StatusCode)
	}

	resp = put("bad", "A B\n1\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("PUT arity-mismatched relation: status %d, want 400", resp.StatusCode)
	}
}

// TestCatalogBulkLoadAndQuery loads a whole database file through
// /catalog and queries it.
func TestCatalogBulkLoadAndQuery(t *testing.T) {
	_, ts := newTestServer(t)
	catalog := "relation S1\nA B\nx 1\ny 2\nend\nrelation S2\nB C\n1 p\n2 q\nend\n"
	resp, err := http.Post(ts.URL+"/v1/tenants/bulk/catalog", "text/plain", strings.NewReader(catalog))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /catalog: status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	q := postQuery(t, ts, "bulk", "S1 * S2", "count=1")
	if body := strings.TrimSpace(readBody(t, q)); body != "2" {
		t.Errorf("S1 * S2 count = %q, want 2", body)
	}
}

// TestTenantIsolation checks one tenant's uploads are invisible to
// another, while the shared cache still keys identical content safely:
// two tenants with byte-identical relations may share results, two
// tenants with different content under the same names must not.
func TestTenantIsolation(t *testing.T) {
	_, ts := newTestServer(t)
	putRel := func(tenant, name, body string) {
		t.Helper()
		req, _ := http.NewRequest("PUT", ts.URL+"/v1/tenants/"+tenant+"/relations/"+name, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PUT %s/%s: status %d", tenant, name, resp.StatusCode)
		}
	}
	// Same names, different content.
	putRel("t1", "X", "A B\n1 1\n3 3\n")
	putRel("t2", "X", "A B\n2 2\n")
	r1 := postQuery(t, ts, "t1", "X", "count=1")
	r2 := postQuery(t, ts, "t2", "X", "count=1")
	if b1, b2 := strings.TrimSpace(readBody(t, r1)), strings.TrimSpace(readBody(t, r2)); b1 != "2" || b2 != "1" {
		t.Errorf("tenant catalogs leaked: t1 count=%s (want 2), t2 count=%s (want 1)", b1, b2)
	}
	// A tenant that never uploaded sees nothing.
	miss := postQuery(t, ts, "t3", "X", "")
	if miss.StatusCode != http.StatusBadRequest {
		t.Errorf("t3 querying t1's relation: status %d, want 400 (unknown relation)", miss.StatusCode)
	}
}

// TestCacheReset checks /v1/cache/reset drops shared-cache entries and
// reports the count.
func TestCacheReset(t *testing.T) {
	_, ts := newTestServer(t)
	// The first sight of an answer streams it; the second stores it.
	postQuery(t, ts, "acme", chainQuery, "count=1")
	postQuery(t, ts, "acme", chainQuery, "count=1")
	resp, err := http.Post(ts.URL+"/v1/cache/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["dropped"] <= 0 {
		t.Errorf("cache reset dropped %d entries, want > 0 after a cached evaluation", out["dropped"])
	}
}

// TestTenantsEndpoint checks /v1/tenants reports configured limits.
func TestTenantsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := readBody(t, resp)
	for _, want := range []string{`"acme"`, `"free"`, `"budget_intermediate_rows": 2000`} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/tenants body missing %s:\n%s", want, body)
		}
	}
}

// TestParseTenantSpec covers the -tenant flag grammar.
func TestParseTenantSpec(t *testing.T) {
	name, limits, err := ParseTenantSpec("acme:budget=10k,timeout=2s,max-rows=1m,mem=64000000")
	if err != nil {
		t.Fatal(err)
	}
	if name != "acme" || limits.MaxIntermediateRows != 10_000 || limits.Deadline != 2*time.Second ||
		limits.MaxRows != 1_000_000 || limits.MaxMemoryBytes != 64_000_000 {
		t.Errorf("parsed %q / %+v", name, limits)
	}
	if name, limits, err := ParseTenantSpec("bare"); err != nil || name != "bare" || limits.Enabled() {
		t.Errorf("bare spec: %q %+v %v", name, limits, err)
	}
	for _, bad := range []string{"", ":budget=1", "x:budget", "x:nope=1", "x:budget=abc"} {
		if _, _, err := ParseTenantSpec(bad); err == nil {
			t.Errorf("ParseTenantSpec(%q) accepted", bad)
		}
	}
}

// TestStreamedResultRoundTrips checks the default result body is valid
// codec text that reloads through the upload path.
func TestStreamedResultRoundTrips(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postQuery(t, ts, "acme", chainQuery, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	name, rel, err := relation.ReadRelation(strings.NewReader(readBody(t, resp)))
	if err != nil {
		t.Fatalf("result body does not parse as a relation: %v", err)
	}
	if name != "result" || rel.Len() != 12000 {
		t.Errorf("parsed %q with %d rows, want result with 12000", name, rel.Len())
	}
}

// TestEnginePanicIs500 injects a panic into the wcoj binding search and
// into the hash join's probe loop: the recovered crash must reach the client
// as 500 with the JSON error envelope — the server's fault, not the
// query's — and the same server must answer the next request.
func TestEnginePanicIs500(t *testing.T) {
	for _, tc := range []struct {
		strategy string
		point    fault.Point
	}{
		{"wcoj", fault.WCOJSearch},
		{"hash", fault.JoinBatch},
	} {
		t.Run(tc.strategy, func(t *testing.T) {
			_, ts := newTestServer(t)
			restore := fault.Set(fault.NewScript(fault.Rule{Point: tc.point, Act: fault.Panic}))
			resp := postQuery(t, ts, "acme", chainQuery, "strategy="+tc.strategy)
			restore()
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("status %d, want 500; body: %s", resp.StatusCode, readBody(t, resp))
			}
			var body errorBody
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
				t.Fatalf("500 body is not the JSON error envelope: %v %+v", err, body)
			}
			resp = postQuery(t, ts, "acme", chainQuery, "strategy="+tc.strategy+"&count=1")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request after the panic: status %d: %s", resp.StatusCode, readBody(t, resp))
			}
			if got := strings.TrimSpace(readBody(t, resp)); got != "12000" {
				t.Errorf("request after the panic counted %q rows, want 12000", got)
			}
		})
	}
}

// TestConfigParallelismIsInert: Config.Parallelism is kept for the benchmark
// contract (bench/load.go sets it) and read by nothing — a server configured
// with 8 streams the same result and the same EXPLAIN ANALYZE, wall time
// aside, as one configured with 0. The join is binary, so auto leaves it to
// the evaluator's default algorithm.
func TestConfigParallelismIsInert(t *testing.T) {
	const query = "R1 * R2"
	wall := regexp.MustCompile(`wall=\S+`)
	answer := func(parallelism int) (result, analyzed string) {
		s := New(Config{Parallelism: parallelism})
		s.Load("acme", chainDB())
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp := postQuery(t, ts, "acme", query, "explain=analyze")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explain=analyze: status %d", resp.StatusCode)
		}
		analyzed = wall.ReplaceAllString(readBody(t, resp), "wall=-")
		return readBody(t, postQuery(t, ts, "acme", query, "")), analyzed
	}
	result, analyzed := answer(0)
	result8, analyzed8 := answer(8)
	if !strings.Contains(result, "a599") || result8 != result {
		t.Errorf("Parallelism: 8 changed the response body (%d bytes, %d with 0)", len(result8), len(result))
	}
	if !strings.Contains(analyzed, "alg=hash") || analyzed8 != analyzed {
		t.Errorf("Parallelism: 8 changed EXPLAIN ANALYZE:\n%s\nwant\n%s", analyzed8, analyzed)
	}
}
