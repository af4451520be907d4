package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentQueriesAndScrapes hammers the server from three sides
// at once — admitted queries, rejected queries, and telemetry scrapes
// (/metrics, /debug/traces, catalog listings) — and checks every
// response is well-formed. Run under -race this is the data-race proof
// for the shared parse cache, the shared subexpression cache, the tenant
// catalogs and the trace ring's circular buffer.
func TestConcurrentQueriesAndScrapes(t *testing.T) {
	_, ts := newTestServer(t)
	const rounds = 8

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(ts.URL+"/v1/tenants/acme/query?count=1", "text/plain", strings.NewReader(chainQuery))
				if err != nil {
					report("acme query: %v", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "12000" {
					report("acme query: status %d body %q", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		// Not chainQuery's text: acme's cached result would be served to free.
		const refused = "R3 * R2 * R1"
		for i := 0; i < rounds; i++ {
			resp, err := http.Post(ts.URL+"/v1/tenants/free/query?strategy=hash", "text/plain", strings.NewReader(refused))
			if err != nil {
				report("free query: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				report("free query: status %d, want 429", resp.StatusCode)
				return
			}
		}
	}()

	// Upload churn: replace a relation in an unrelated tenant while
	// queries run, exercising catalog locking against snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			body := fmt.Sprintf("A B\n%d %d\n", i, i)
			req, _ := http.NewRequest("PUT", ts.URL+"/v1/tenants/churn/relations/X", strings.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				report("churn PUT: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	for _, path := range []string{"/metrics", "/debug/traces", "/v1/tenants", "/v1/tenants/acme/relations"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds*2; i++ {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					report("GET %s: %v", path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					report("GET %s: status %d", path, resp.StatusCode)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
