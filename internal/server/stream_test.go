package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// TestStreamedCountStopsAtTheCount: a first-sight ?count=1 of an acyclic
// answer ends at the tree join's count. The sink wants no rows, so no trie
// is built, no search runs and no output row exists: the whole request
// allocates less than one array of chainQuery's 12 000 rows would, at
// three columns, let alone its four.
func TestStreamedCountStopsAtTheCount(t *testing.T) {
	const outputRows = 12_000 * 3 * 16
	least := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		s := New(Config{})
		s.Load("acme", chainDB())
		h := s.Handler()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/tenants/acme/query?count=1", strings.NewReader(chainQuery))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "12000" {
			t.Fatalf("first-sight ?count=1: status %d, body %q", rec.Code, rec.Body.String())
		}
		if _, _, _, entries := s.shared.Counters(); entries != 0 {
			t.Fatalf("a first-sight count stored %d answers, want none", entries)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a first-sight ?count=1 allocated %d bytes", least)
	if least >= outputRows {
		t.Errorf("a first-sight ?count=1 allocated %d bytes; one output row array is %d", least, outputRows)
	}
}

// TestStreamAdmission: the first request for an acyclic answer streams it
// and stores nothing, the second finds it asked before, builds the
// answer and stores it, the third is served it; all three bodies are the
// same bytes.
func TestStreamAdmission(t *testing.T) {
	s, ts := newTestServer(t)
	var bodies []string
	for i, want := range []struct{ misses, hits, entries int }{{1, 0, 0}, {2, 0, 1}, {2, 1, 1}} {
		resp := postQuery(t, ts, "acme", chainQuery, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i+1, resp.StatusCode)
		}
		bodies = append(bodies, readBody(t, resp))
		hits, misses, _, entries := s.shared.Counters()
		if misses != want.misses || hits != want.hits || entries != want.entries {
			t.Errorf("after request %d: %d misses, %d hits, %d stored; want %+v", i+1, misses, hits, entries, want)
		}
	}
	if bodies[1] != bodies[0] || bodies[2] != bodies[0] || !strings.HasSuffix(bodies[0], "\nend\n") {
		t.Errorf("the streamed, the stored and the served answer differ: %d, %d, %d bytes", len(bodies[0]), len(bodies[1]), len(bodies[2]))
	}
}

// TestStreamFailsMidStream: a failure after the first 32 KB of a streamed
// answer reached the client — an engine panic, a deadline — cannot change
// the 200 that went out with them. The body ends without the block's end
// line and the ErrorTrailer names the status the failure maps to. The same
// failure before the buffer first filled still gets its status: early in
// chainQuery's 12 000 rows, and late in the example catalog's 400-row
// chain, an answer under 32 KB.
func TestStreamFailsMidStream(t *testing.T) {
	for _, tc := range []struct {
		name, params string
		act          fault.Action
		status       string
	}{
		{"panic", "", fault.Panic, "500"},
		{"deadline", "timeout=500ms", fault.Sleep, "504"},
	} {
		for _, at := range []struct {
			example  bool // the example catalog's 400-row answer, else chainQuery's
			crossing int64
			late     bool
		}{{false, 10_000, true}, {false, 100, false}, {true, 300, false}} {
			var ts *httptest.Server
			if at.example {
				_, ts = exampleServer(t)
			} else {
				_, ts = newTestServer(t)
			}
			restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.WCOJSearch, N: at.crossing, Act: tc.act, Delay: 700 * time.Millisecond}))
			resp := postQuery(t, ts, "acme", chainQuery, tc.params)
			body := readBody(t, resp)
			restore()
			what := fmt.Sprintf("%s at crossing %d (example catalog %v)", tc.name, at.crossing, at.example)
			if !at.late {
				if got := resp.Status[:3]; got != tc.status {
					t.Errorf("%s: status %s, want %s", what, resp.Status, tc.status)
				}
				continue
			}
			if resp.StatusCode != http.StatusOK || len(body) < responseBuffer {
				t.Fatalf("%s: status %d after %d bytes, want 200 after the first %d", what, resp.StatusCode, len(body), responseBuffer)
			}
			if strings.HasSuffix(body, "\nend\n") {
				t.Errorf("%s: the broken answer ends with the block's end line", what)
			}
			if got := resp.Trailer.Get(ErrorTrailer); !strings.HasPrefix(got, tc.status+" ") {
				t.Errorf("%s: trailer %s = %q, want status %s", what, ErrorTrailer, got, tc.status)
			}
		}
	}
}

// TestStreamConcurrentFirstSight: eight identical first-sight requests
// at once. The one that asks first streams; the others find it asked, so
// one of them builds and stores the answer while the rest wait on it and
// are served it. Every body is the same bytes, and the answer is stored
// exactly once.
func TestStreamConcurrentFirstSight(t *testing.T) {
	s, ts := newTestServer(t)
	restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.EvalNode, Every: true, Act: fault.Sleep, Delay: 2 * time.Millisecond}))
	defer restore()

	const requests = 8
	before := scrape(t, ts)
	bodies := make([]string, requests)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/tenants/acme/query", "text/plain", strings.NewReader(chainQuery))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("concurrent first sight: status %d, %v", resp.StatusCode, err)
			}
			bodies[i] = string(body)
		}()
	}
	wg.Wait()
	for i, body := range bodies {
		if body != bodies[0] {
			t.Errorf("request %d answered %d bytes, request 0 %d", i, len(body), len(bodies[0]))
		}
	}
	after := scrape(t, ts)
	misses := after[obs.SeriesServerSharedCacheMisses] - before[obs.SeriesServerSharedCacheMisses]
	hits := after[obs.SeriesServerSharedCacheHits] - before[obs.SeriesServerSharedCacheHits]
	if _, _, _, entries := s.shared.Counters(); misses != 2 || hits != requests-2 || entries != 1 {
		t.Errorf("%d identical first sights: %v misses, %v hits, %d stored; want one streamed, one stored and %d served", requests, misses, hits, entries, requests-2)
	}
}

// stalledWriter is the ResponseWriter of a client that stopped reading
// after the headers: its first Write reports itself on writing, and every
// Write then blocks until release is closed.
type stalledWriter struct {
	header           http.Header
	writing, release chan struct{}
	once             sync.Once
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return len(p), nil
}

// TestStreamStalledClientBlocksNobody: the first request for an answer
// streams it, and its client stops reading once the first 32 KB are out.
// An identical request made meanwhile is still answered in full: no
// request waits on another's client.
func TestStreamStalledClientBlocksNobody(t *testing.T) {
	s := New(Config{})
	s.Load("acme", chainDB())
	h := s.Handler()
	query := func() *http.Request {
		return httptest.NewRequest("POST", "/v1/tenants/acme/query", strings.NewReader(chainQuery))
	}
	stalled := &stalledWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
	first := make(chan struct{})
	go func() {
		defer close(first)
		h.ServeHTTP(stalled, query())
	}()
	<-stalled.writing
	if _, _, _, entries := s.shared.Counters(); entries != 0 {
		t.Fatalf("the stalled first sight stored %d answers; it should stream", entries)
	}
	second := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, query())
		second <- rec
	}()
	select {
	case rec := <-second:
		if rec.Code != http.StatusOK || !strings.HasSuffix(rec.Body.String(), "\nend\n") {
			t.Errorf("beside a stalled client: status %d, %d bytes without the end line", rec.Code, rec.Body.Len())
		}
	case <-time.After(10 * time.Second):
		t.Error("an identical request waited on the stalled client for 10s")
		close(stalled.release)
		<-second
		<-first
		return
	}
	close(stalled.release)
	<-first
}

// TestStreamHashAnswersAreByteEqual: under ?strategy=hash the binary
// plan writes its first-sight answer, count first, in sorted order: on
// Lemma 1 gadgets every body is the bytes the built answer's are, and the
// answer is stored on the second ask. Also when every tuple hash collides.
func TestStreamHashAnswersAreByteEqual(t *testing.T) {
	gadgetAnswersAreByteEqual(t, "hash")
}

// TestStreamHashFailsBeforeTheFirstByte: a written hash answer checks the
// result cap and the memory charge on its count, so an answer over either
// gets its 413 and its JSON error, and no part of the answer. A row budget
// below the count is refused earlier still, 429 by admission: the greedy
// plan's AGM peak bounds the count. (The join checks the row budget on the
// count too: TestStreamHashPlanWritesSortedOrder.)
func TestStreamHashFailsBeforeTheFirstByte(t *testing.T) {
	const rows = 12_000 // chainQuery's answer, four columns
	for _, tc := range []struct {
		limits governor.Limits
		status int
	}{
		{governor.Limits{MaxRows: rows - 1}, http.StatusRequestEntityTooLarge},
		{governor.Limits{MaxMemoryBytes: rows * relation.RowBytes(4)}, http.StatusRequestEntityTooLarge},
		{governor.Limits{MaxIntermediateRows: rows - 1}, http.StatusTooManyRequests},
	} {
		s := New(Config{Tenants: map[string]governor.Limits{"acme": tc.limits}})
		s.Load("acme", chainDB())
		ts := httptest.NewServer(s.Handler())
		resp := postQuery(t, ts, "acme", chainQuery, "strategy=hash")
		body := readBody(t, resp)
		ts.Close()
		if resp.StatusCode != tc.status || strings.Contains(body, "relation result") || !strings.HasPrefix(body, "{") {
			t.Errorf("under %+v: status %d, body %.200q; want %d and the JSON error alone", tc.limits, resp.StatusCode, body, tc.status)
		}
	}
}

// TestStreamHashFailsMidStream: a written hash answer crosses a batch
// boundary every checkBatch rows it writes. A panic there, or a stall past
// the request's ?timeout=, at the last crossing of chainQuery's 12 000
// rows — long after the first 32 KB went out with status 200 — ends the
// body without the block's end line, and the ErrorTrailer names the status.
func TestStreamHashFailsMidStream(t *testing.T) {
	_, ts := newTestServer(t)
	var crossings int64
	restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.JoinBatch, Every: true, Act: fault.Call, Func: func() { crossings++ }}))
	resp := postQuery(t, ts, "acme", chainQuery, "strategy=hash")
	readBody(t, resp)
	restore()
	for _, tc := range []struct {
		name, params string
		act          fault.Action
		status       string
	}{
		{"panic", "strategy=hash", fault.Panic, "500"},
		{"deadline", "strategy=hash&timeout=500ms", fault.Sleep, "504"},
	} {
		resetCache(t, ts)
		restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.JoinBatch, N: crossings, Act: tc.act, Delay: 700 * time.Millisecond}))
		resp := postQuery(t, ts, "acme", chainQuery, tc.params)
		body := readBody(t, resp)
		restore()
		if resp.StatusCode != http.StatusOK || len(body) < responseBuffer {
			t.Fatalf("%s: status %d after %d bytes, want 200 after the first %d", tc.name, resp.StatusCode, len(body), responseBuffer)
		}
		if strings.HasSuffix(body, "\nend\n") {
			t.Errorf("%s: the broken answer ends with the block's end line", tc.name)
		}
		if got := resp.Trailer.Get(ErrorTrailer); !strings.HasPrefix(got, tc.status+" ") {
			t.Errorf("%s: trailer %s = %q, want status %s", tc.name, ErrorTrailer, got, tc.status)
		}
	}
}
