package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"relquery/internal/governor"
	"relquery/internal/obs"
)

// FuzzQueryParams: the query-string reader answers what url.ParseQuery
// followed by Values.Get answers, for every parameter relqueryd reads.
func FuzzQueryParams(f *testing.F) {
	for _, raw := range []string{
		"",
		"strategy=wcoj&count=1",
		"strategy=hash&strategy=wcoj",         // repeated: the first wins
		"count=&count=1",                      // an empty first value wins too
		"tenant=a+b%20c&explain=analyze",      // '+' and an escape
		"explain=%zz&explain=analyze",         // a bad escape skips its pair
		"%zz=1&order=greedy",                  // a bad key too
		"timeout=1s;strategy=hash&timeout=2s", // ';' poisons its pair
		"&&strategy&=x&order=&tenant=t&",      // empty pairs, keys, values
		"%73trategy=hash&co%75nt=true",        // escaped keys
		"strategy=auto=more&timeout=1%2B1",    // '=' in a value, escaped '+'
		"TENANT=x&tenant=y&tenant%00=z",       // case and NUL are not the key
		"explain=%E2%82%AC&count=%",           // UTF-8 escape, truncated escape
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw)
		for _, name := range []string{"strategy", "order", "timeout", "explain", "count", "tenant"} {
			if got := queryParam(raw, name); got != want.Get(name) {
				t.Fatalf("queryParam(%q, %q) = %q, url.Values.Get = %q", raw, name, got, want.Get(name))
			}
		}
	})
}

// discardWriter is a ResponseWriter that keeps one header map and throws
// the body away, so that counting a request's allocations counts the
// server's and not the writer's.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestQueryPathAllocations pins what a query costs relqueryd itself, from
// its body read to its last byte, on a warm hit (the third ask of an
// answer) and on a cold first sight (the first ask since a cache reset,
// which streams): the request is handled by the tenant route's handler,
// past net/http's server and mux, whose allocations are theirs and vary
// with the Go release. On either path the server allocates the answer's
// header values (one string cut into parts and one slice) and nothing else
// of its own: the body is read into the pooled response, the parameters
// from the raw query string, the plan cache looked up by bytes, and the
// content keys, arguments, plan, governor and sink are kept from request
// to request.
func TestQueryPathAllocations(t *testing.T) {
	s := New(Config{Tenants: map[string]governor.Limits{"acme": {MaxIntermediateRows: 1_000_000}}})
	s.Load("acme", chainDB())
	body := strings.NewReader(chainQuery)
	req := httptest.NewRequest("POST", "/v1/tenants/acme/query?strategy=auto&order=greedy", body)
	req.SetPathValue("tenant", "acme")
	w := &discardWriter{header: make(http.Header)}
	ask := func() {
		body.Reset(chainQuery)
		clear(w.header)
		s.handleTenantQuery(w, req)
		if w.status != 0 && w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	// First sight, stored, hits: as many as fill the registry's trace ring,
	// whose slots are reused from then on.
	for i := 0; i < 3+obs.DefaultTraceCap; i++ {
		ask()
	}
	hits, _, _, _ := s.shared.Counters()
	warm := testing.AllocsPerRun(50, ask)
	if after, _, _, _ := s.shared.Counters(); after <= hits {
		t.Fatal("the warm asks did not hit the shared cache")
	}
	reset := testing.AllocsPerRun(50, func() { s.shared.Reset() })
	first := func() {
		s.shared.Reset()
		ask()
	}
	for i := 0; i < obs.DefaultTraceCap; i++ { // ring slots the size of a cold trace
		first()
	}
	cold := testing.AllocsPerRun(50, first) - reset
	t.Logf("allocations per query: warm hit %v, cold first sight %v (a cache reset alone %v)", warm, cold, reset)
	// Measured: the header values' string and slice, on both paths.
	if warm > 2 {
		t.Errorf("a warm hit allocates %v times, want at most 2", warm)
	}
	if cold > 2 {
		t.Errorf("a cold first sight allocates %v times, want at most 2", cold)
	}
}

// TestReusedResponseStartsClean: relqueryd keeps one response per
// evaluation slot and hands it to the next request, with the request's
// body, parameters, evaluator and governor in it. A query that follows a
// 413 (past the body cap, and past the row budget), a 429, a 504 and a
// ?count= on that same response answers as a query on a fresh server
// does: its own limits, strategy, headers and governor, nothing of the
// request before.
func TestReusedResponseStartsClean(t *testing.T) {
	s := New(Config{
		MaxConcurrent: 1, // one slot, one pooled response
		Tenants: map[string]governor.Limits{
			"acme":  {MaxIntermediateRows: 1_000_000},
			"tight": {MaxIntermediateRows: 100},
			"free":  {MaxIntermediateRows: 2_000},
		},
	})
	db := chainDB()
	for _, tenant := range []string{"acme", "tight", "free"} {
		s.Load(tenant, db)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	pooled := func() *response {
		o := <-s.responses
		s.responses <- o
		return o
	}
	send := func(tenant, src, params string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/tenants/"+tenant+"/query?"+params, "text/plain", strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}
	// The clean query: under hash, acme's budget admits it. Its answer is
	// taken on the fresh server, first sight and stored, and from then on
	// every ask hits.
	const clean = "R3 * R2 * R1"
	_, want := send("acme", clean, "strategy=hash")
	send("acme", clean, "strategy=hash")
	o := pooled()
	for _, before := range []struct {
		name, tenant, src, params string
		status                    int
	}{
		{"past the body cap", "acme", strings.Repeat(" ", maxQueryBytes+1), "", http.StatusRequestEntityTooLarge},
		{"past the row budget", "tight", chainQuery, "strategy=wcoj", http.StatusRequestEntityTooLarge},
		{"refused admission", "free", chainQuery, "strategy=hash&order=sequential", http.StatusTooManyRequests},
		{"past the deadline", "acme", chainQuery, "timeout=1ns&strategy=yannakakis", http.StatusGatewayTimeout},
		{"count only", "acme", chainQuery, "count=1&strategy=wcoj", http.StatusOK},
	} {
		if resp, body := send(before.tenant, before.src, before.params); resp.StatusCode != before.status {
			t.Fatalf("%s: status %d, want %d: %s", before.name, resp.StatusCode, before.status, body)
		}
		resp, got := send("acme", clean, "strategy=hash")
		if pooled() != o {
			t.Fatalf("after %s: the server did not hand out the same response", before.name)
		}
		h := resp.Header
		switch {
		case resp.StatusCode != http.StatusOK:
			t.Errorf("after %s: status %d: %s", before.name, resp.StatusCode, got)
		case got != want:
			t.Errorf("after %s: the answer differs from a fresh server's:\n%.300s", before.name, got)
		case h.Get("X-Relquery-Strategy") != "hash" || h.Get("X-Relquery-Rows") != "12000":
			t.Errorf("after %s: strategy %q, rows %q", before.name, h.Get("X-Relquery-Strategy"), h.Get("X-Relquery-Rows"))
		case h.Get("Content-Length") != "" || h.Get(http.TrailerPrefix+ErrorTrailer) != "" || resp.Trailer.Get(ErrorTrailer) != "":
			t.Errorf("after %s: a 12 000-row answer with Content-Length %q or error %q", before.name, h.Get("Content-Length"), resp.Trailer.Get(ErrorTrailer))
		}
		if o.gov != (governor.Governor{}) || o.q.strategy != "" || o.w != nil || len(o.body) != 0 {
			t.Errorf("after %s: the released response still holds its request: %+v", before.name, o.q)
		}
	}
	// A small answer is whole in the buffer: it goes out with its length.
	resp, got := send("acme", "R1", "strategy=hash")
	if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("a %d-byte answer: Content-Length %d, Transfer-Encoding %v", len(got), resp.ContentLength, resp.TransferEncoding)
	}
}

// TestConcurrentQueriesShareNoRequestState: queries with different
// tenants, strategies, orders, counts and limits, sent at once from many
// clients, each get their own answer and headers, whichever pooled
// response and call state they are handed. Run under -race (make stress).
func TestConcurrentQueriesShareNoRequestState(t *testing.T) {
	s := New(Config{
		MaxConcurrent: 2,
		Tenants: map[string]governor.Limits{
			"acme": {MaxIntermediateRows: 1_000_000},
			"free": {MaxIntermediateRows: 2_000},
		},
	})
	db := chainDB()
	s.Load("acme", db)
	s.Load("free", db)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	type ask struct {
		tenant, src, params string
		status              int
		strategy, rows      string
		body                string // "" for any
	}
	asks := []ask{
		// One text per strategy: the shared cache answers a text with the
		// columns of the strategy that stored it, whichever was asked.
		{"acme", chainQuery, "strategy=hash", 200, "hash", "12000", ""},
		{"acme", "R3 * R2 * R1", "strategy=wcoj&order=sequential", 200, "wcoj", "12000", ""},
		{"acme", "R2 * R1 * R3", "count=1&strategy=yannakakis", 200, "yannakakis", "12000", "12000\n"},
		{"acme", "pi[A D](R1 * R2 * R3)", "", 200, "auto", "12000", ""},
		{"free", "R3 * R1 * R2", "strategy=hash", http.StatusTooManyRequests, "", "", ""},
		{"acme", "R1 * R2", "timeout=1ns", http.StatusGatewayTimeout, "", "", ""},
		{"acme", "R1 * Nope", "", http.StatusBadRequest, "", "", ""},
	}
	// Each answer as a lone request gets it.
	for i, a := range asks {
		if a.body == "" && a.status == http.StatusOK {
			resp, err := http.Post(ts.URL+"/v1/tenants/"+a.tenant+"/query?"+a.params, "text/plain", strings.NewReader(a.src))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			asks[i].body = string(b)
		}
	}
	const clients, rounds = 6, 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a := asks[(c+r)%len(asks)]
				resp, err := http.Post(ts.URL+"/v1/tenants/"+a.tenant+"/query?"+a.params, "text/plain", strings.NewReader(a.src))
				if err != nil {
					errc <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				h := resp.Header
				switch {
				case resp.StatusCode != a.status:
					err = fmt.Errorf("%s?%s: status %d, want %d: %.200s", a.src, a.params, resp.StatusCode, a.status, b)
				case a.status != http.StatusOK:
				case h.Get("X-Relquery-Strategy") != a.strategy || h.Get("X-Relquery-Rows") != a.rows:
					err = fmt.Errorf("%s?%s: strategy %q rows %q, want %q %q", a.src, a.params, h.Get("X-Relquery-Strategy"), h.Get("X-Relquery-Rows"), a.strategy, a.rows)
				case string(b) != a.body:
					at := 0
					for at < min(len(b), len(a.body)) && b[at] == a.body[at] {
						at++
					}
					err = fmt.Errorf("%s?%s: answer of %d bytes differs from its lone request's %d at byte %d: %q, want %q", a.src, a.params, len(b), len(a.body), at, b[max(at-40, 0):min(at+40, len(b))], a.body[max(at-40, 0):min(at+40, len(a.body))])
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
