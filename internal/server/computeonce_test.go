package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// query is one POST to tenant's query route from any goroutine (postQuery
// may only be called from the test's own): status and X-Relquery-Rows.
func query(ts *httptest.Server, tenant, src, params string) (status int, rows string, err error) {
	resp, err := http.Post(ts.URL+"/v1/tenants/"+tenant+"/query?"+params, "text/plain", strings.NewReader(src))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Relquery-Rows"), err
}

// blockNthNode installs a fault script that parks the goroutine making the
// nth algebra.node crossing until release is closed, and reports it on
// entered. With one request in the server, crossing 1 is its root — before
// the cache is asked — and crossing 2 its first argument: inside the root's
// computation, which that request now leads.
func blockNthNode(t *testing.T, n int64) (entered, release chan struct{}) {
	t.Helper()
	entered, release = make(chan struct{}), make(chan struct{})
	restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.EvalNode, N: n, Act: fault.Call, Func: func() {
		close(entered)
		<-release
	}}))
	t.Cleanup(restore)
	return entered, release
}

// TestConcurrentIdenticalMissesComputeOnce: eight identical cold requests
// at once for a node that may stream. The one that asks first streams its
// answer outside the store; of the seven that find it asked, one evaluates
// the query's one composite node, the join, and stores it, and the other
// six are served it. (The three legs are facts of T, not cache entries:
// TestConcurrentFirstQueriesShareProjections.) Every node evaluation is
// slowed so the requests overlap; the counts are exact under any
// interleaving.
func TestConcurrentIdenticalMissesComputeOnce(t *testing.T) {
	const requests = 8
	// A streamed answer is a miss that stores nothing.
	misses, hits, entries := concurrentIdentical(t, requests, triangleQuery, "count=1")
	if misses != 2 || hits != requests-2 || entries != 1 {
		t.Errorf("%d identical cold requests: %v shared-cache misses, %v hits, %d stored; want one streamed, the join computed once and stored, and %d requests served it",
			requests, misses, hits, entries, requests-2)
	}
}

// TestConcurrentIdenticalHashMissesComputeOnce: the same eight requests
// under ?strategy=hash. The binary plan writes its answer like the
// one-pass joins: the first streams it, one of the seven that find it
// asked builds and stores it, and the other six are served it.
func TestConcurrentIdenticalHashMissesComputeOnce(t *testing.T) {
	const requests = 8
	misses, hits, entries := concurrentIdentical(t, requests, triangleQuery, "count=1&strategy=hash")
	if misses != 2 || hits != requests-2 || entries != 1 {
		t.Errorf("%d identical cold requests: %v shared-cache misses, %v hits, %d stored; want one streamed, the join computed once and stored, and %d requests served it",
			requests, misses, hits, entries, requests-2)
	}
}

// TestConcurrentIdenticalProjectedHashMissesComputeOnce: eight identical
// cold requests for a projection of the triangle under ?strategy=hash, an
// answer that is always built: the first builds it in the store and the
// other seven are served it.
func TestConcurrentIdenticalProjectedHashMissesComputeOnce(t *testing.T) {
	const requests = 8
	misses, hits, entries := concurrentIdentical(t, requests, "pi[A C]("+triangleQuery+")", "count=1&strategy=hash")
	if misses != 1 || hits != requests-1 || entries != 1 {
		t.Errorf("%d identical cold requests: %v shared-cache misses, %v hits, %d stored; want the join computed once and %d requests served it",
			requests, misses, hits, entries, requests-1)
	}
}

// concurrentIdentical sends n identical requests for src with params
// at once to a fresh server, every node evaluation slowed so that they
// overlap, and returns the shared-cache misses and hits /metrics counted
// and the answers stored.
func concurrentIdentical(t *testing.T, n int, src, params string) (misses, hits float64, entries int) {
	t.Helper()
	s, ts := newTestServer(t)
	s.Load("acme", relation.Single("T", triangle(40)))
	restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.EvalNode, Every: true, Act: fault.Sleep, Delay: 2 * time.Millisecond}))
	defer restore()

	before := scrape(t, ts)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, _, err := query(ts, "acme", src, params); err != nil || status != http.StatusOK {
				t.Errorf("concurrent cold request: status %d, %v", status, err)
			}
		}()
	}
	wg.Wait()
	after := scrape(t, ts)
	_, _, _, entries = s.shared.Counters()
	return after[obs.SeriesServerSharedCacheMisses] - before[obs.SeriesServerSharedCacheMisses],
		after[obs.SeriesServerSharedCacheHits] - before[obs.SeriesServerSharedCacheHits],
		entries
}

// TestQueryConcurrentFirstUse: eight first queries at once, each its own
// text — so none waits on another's node — but all over the three legs of
// triangleQuery, project the catalog relation concurrently, and under
// -race prove that a projection and the tries on it are published without
// a lock: every answer is byte-identical below its header line, and each
// leg is left as one fact of T.
func TestQueryConcurrentFirstUse(t *testing.T) {
	s, ts := newTestServer(t)
	tri := triangle(40)
	s.Load("acme", relation.Single("T", tri))
	restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.EvalNode, Every: true, Act: fault.Sleep, Delay: time.Millisecond}))
	defer restore()

	legs := []string{"pi[A B](T)", "pi[B C](T)", "pi[A C](T)"}
	bodies := make([]string, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		// A rotation of the legs, then i/3 more copies of one: eight texts.
		args := append(append([]string(nil), legs[i%3:]...), legs[:i%3]...)
		for k := 0; k < i/3; k++ {
			args = append(args, legs[0])
		}
		src := "pi[A B C](" + strings.Join(args, " * ") + ")"
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/tenants/acme/query", "text/plain", strings.NewReader(src))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, %v", src, resp.StatusCode, err)
			}
			_, bodies[i], _ = strings.Cut(string(body), "\n")
		}()
	}
	wg.Wait()
	for i, body := range bodies {
		if body != bodies[0] {
			t.Errorf("query %d answered\n%s\nquery 0\n%s", i, body, bodies[0])
		}
	}
	for _, leg := range []relation.Scheme{relation.MustScheme("A", "B"), relation.MustScheme("B", "C"), relation.MustScheme("A", "C")} {
		fact, err := tri.Projection(leg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tri.Project(leg)
		if again, _ := tri.Projection(leg); again != fact || !fact.Equal(want) {
			t.Errorf("after the concurrent queries π_{%v}(T) is no single fact holding Project's rows", leg)
		}
	}
}

// TestWaiterDiesOnItsOwnDeadline: a request waiting on a node another
// request is computing gives up at its own ?timeout= with 504, while the
// leader — parked inside the computation — is still going and then
// succeeds. The node was asked for once before: a first sight streams
// outside the store, and nobody waits on it (TestStreamStalledClientBlocksNobody).
func TestWaiterDiesOnItsOwnDeadline(t *testing.T) {
	_, ts := newTestServer(t)
	if status, _, err := query(ts, "acme", chainQuery, "count=1"); err != nil || status != http.StatusOK {
		t.Fatalf("first sight: status %d, %v", status, err)
	}
	entered, release := blockNthNode(t, 2)

	leader := make(chan int, 1)
	go func() {
		status, _, err := query(ts, "acme", chainQuery, "count=1")
		if err != nil {
			t.Error(err)
		}
		leader <- status
	}()
	<-entered

	resp := postQuery(t, ts, "acme", chainQuery, "count=1&timeout=50ms")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("waiter with ?timeout=50ms behind a parked leader: status %d, want 504; body: %s", resp.StatusCode, readBody(t, resp))
	}
	select {
	case status := <-leader:
		t.Fatalf("the leader answered %d while parked: the waiter proved nothing", status)
	default:
	}
	close(release)
	if status := <-leader; status != http.StatusOK {
		t.Errorf("leader after its waiter gave up: status %d, want 200", status)
	}
}

// TestWaiterNeverInheritsLeaderError: tenant small leads the join node and
// is refused by the per-node gate on its own 50-row budget; tenant large,
// waiting on the same node (same text, same content), is not handed that
// 429 — it evaluates the node under its own budget and answers.
func TestWaiterNeverInheritsLeaderError(t *testing.T) {
	s := New(Config{Tenants: map[string]governor.Limits{
		"small": {MaxIntermediateRows: 50},
		"large": {MaxIntermediateRows: 1_000_000},
	}})
	for _, tenant := range []string{"small", "large"} {
		s.Load(tenant, relation.Single("T", triangle(40)))
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Crossing 3 is the waiter's root, just before it asks the cache.
	entered, release := blockNthNode(t, 2)
	leader := make(chan int, 1)
	go func() {
		status, _, err := query(ts, "small", triangleQuery, "strategy=hash")
		if err != nil {
			t.Error(err)
		}
		leader <- status
	}()
	<-entered
	waiter := make(chan [2]string, 1)
	go func() {
		status, rows, err := query(ts, "large", triangleQuery, "strategy=hash")
		if err != nil {
			t.Error(err)
		}
		waiter <- [2]string{fmt.Sprint(status), rows}
	}()
	// Let the waiter reach the entry; should it not have, it computes for
	// itself all the same and the test is weaker, not wrong.
	time.Sleep(50 * time.Millisecond)
	close(release)

	if status := <-leader; status != http.StatusTooManyRequests {
		t.Errorf("leader on a 50-row budget: status %d, want 429 from the per-node gate", status)
	}
	alone := postQuery(t, ts, "large", triangleQuery, "strategy=hash")
	if got := <-waiter; got[0] != "200" || got[1] != alone.Header.Get("X-Relquery-Rows") {
		t.Errorf("waiter on a 1m-row budget: status %s, %s rows; want 200 and %s rows", got[0], got[1], alone.Header.Get("X-Relquery-Rows"))
	}
}

// TestTenantsListedInNameOrder: /v1/tenants and the per-tenant /metrics
// gauges come out sorted, however the tenants came to exist.
func TestTenantsListedInNameOrder(t *testing.T) {
	_, ts := newTestServer(t) // acme, free, slow
	for _, name := range []string{"zeta", "beta", "mu", "alpha", "omega"} {
		putRelation(t, ts, name, "X", triangle(1))
	}
	want := []string{"acme", "alpha", "beta", "free", "mu", "omega", "slow", "zeta"}

	resp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listed []struct{ Name string }
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, info := range listed {
		got = append(got, info.Name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("/v1/tenants lists %v, want %v", got, want)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	got = nil
	for _, line := range strings.Split(readBody(t, metrics), "\n") {
		if name, ok := strings.CutPrefix(line, obs.SeriesServerCatalogRelations+`{tenant="`); ok {
			got = append(got, name[:strings.Index(name, `"`)])
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s exposed in order %v, want %v", obs.SeriesServerCatalogRelations, got, want)
	}
}

// TestUnknownTenantReadsCreateNothing: listing, fetching or deleting under
// a tenant nobody uploaded to or queried answers 404 and leaves no tenant
// behind; an upload still creates one.
func TestUnknownTenantReadsCreateNothing(t *testing.T) {
	s, ts := newTestServer(t)
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/v1/tenants/ghost1/relations"},
		{http.MethodGet, "/v1/tenants/ghost2/relations/R1"},
		{http.MethodDelete, "/v1/tenants/ghost3/relations/R1"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
	if got := len(s.tenantList()); got != 3 {
		t.Errorf("%d tenants after three reads of unknown ones, want the 3 configured", got)
	}
	putRelation(t, ts, "fresh", "X", triangle(1))
	if s.lookup("fresh") == nil {
		t.Error("an upload did not create its tenant")
	}
}
