package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/fault"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
)

// heldBody checks that body, a query response, is its answer in the
// codec's block form below the two comment lines, and returns that block.
func heldBody(t *testing.T, body string, rows int) string {
	t.Helper()
	comment, rest, _ := strings.Cut(body, "\n")
	count, block, _ := strings.Cut(rest, "\n")
	if !strings.HasPrefix(comment, "# ") || !strings.HasPrefix(count, fmt.Sprintf("# %d tuples over ", rows)) {
		t.Fatalf("response does not open with the comment lines of %d tuples: %.200q", rows, body)
	}
	return block
}

// TestStreamHeldAnswersAreByteEqual: on Lemma 1 gadgets, under wcoj and
// auto, the first request's answer is held — its count is unknown until
// the generic join's last row, and nothing is stored — and its body is
// the comment lines and then exactly what WriteRelation writes of the
// answer EvalContext builds, as is the second's, which stores it, and the
// third's, served it. Also when every tuple hash collides.
func TestStreamHeldAnswersAreByteEqual(t *testing.T) {
	gadgetAnswersAreByteEqual(t, "wcoj", "auto")
}

// gadgetAnswersAreByteEqual asks each of strategies three times for φ_G
// of two Lemma 1 gadgets, on a fresh server per strategy: every body is
// the comment lines and then exactly what WriteRelation writes of the
// answer EvalContext builds, and the answer is stored on the second ask,
// not the first. Also when every tuple hash collides.
func gadgetAnswersAreByteEqual(t *testing.T, strategies ...string) {
	t.Helper()
	for _, collide := range []bool{false, true} {
		if collide {
			relation.CollideAllHashes(t)
		}
		for _, size := range [][2]int{{5, 5}, {8, 10}} {
			c := gadget(t, size[0], size[1])
			phi, err := c.PhiG()
			if err != nil {
				t.Fatal(err)
			}
			for _, strategy := range strategies {
				// Built as the server evaluates: the binary plan's column
				// order follows its order.
				ev := algebra.Evaluator{Order: join.Greedy}
				if err := ev.SetStrategy(strategy); err != nil {
					t.Fatal(err)
				}
				built, err := ev.Eval(phi, c.Database())
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				if err := relation.WriteRelation(&want, "result", built); err != nil {
					t.Fatal(err)
				}
				s := New(Config{Tenants: map[string]governor.Limits{"acme": {}}})
				s.Load("acme", c.Database())
				ts := httptest.NewServer(s.Handler())
				what := fmt.Sprintf("n=%d m=%d under %s (collide %v)", size[0], size[1], strategy, collide)
				for i, stored := range []int{0, 1, 1} {
					resp := postQuery(t, ts, "acme", phi.String(), "strategy="+strategy)
					body := readBody(t, resp)
					if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Relquery-Rows") != fmt.Sprint(built.Len()) {
						t.Fatalf("%s, request %d: status %d, X-Relquery-Rows %q, want 200 and %d", what, i+1, resp.StatusCode, resp.Header.Get("X-Relquery-Rows"), built.Len())
					}
					if got := heldBody(t, body, built.Len()); got != want.String() {
						t.Errorf("%s, request %d: the body's block\n%s\nWriteRelation of the built answer\n%s", what, i+1, got, want.String())
					}
					if _, _, _, entries := s.shared.Counters(); entries != stored {
						t.Errorf("%s, after request %d: %d stored, want %d", what, i+1, entries, stored)
					}
				}
				ts.Close()
			}
		}
	}
}

// heldServer is a server of one evaluation slot over chainDB, and the one
// response on its free list, which every request it serves takes: a test
// can read what the response holds from a fault hook on the evaluating
// goroutine, and what the free list keeps after the request.
func heldServer(t *testing.T) (*Server, *httptest.Server, *response) {
	t.Helper()
	s := New(Config{MaxConcurrent: 1, Tenants: map[string]governor.Limits{"acme": {}}})
	s.Load("acme", chainDB())
	o := s.response()
	s.release(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, o
}

// TestStreamHeldFailureGetsItsStatus: the generic join's answer to
// chainQuery, 12 000 rows under ?strategy=wcoj, is held; a panic in its
// search, or a stall past the request's ?timeout=, strikes once more than
// 32 KB of rows are held. The client gets the failure's status — 500,
// 504 — and its JSON error: no part of the answer and no ErrorTrailer.
func TestStreamHeldFailureGetsItsStatus(t *testing.T) {
	for _, tc := range []struct {
		name, params string
		strike       func()
		status       int
	}{
		{"panic", "", func() { panic(&fault.InjectedPanic{Point: fault.WCOJSearch}) }, http.StatusInternalServerError},
		{"deadline", "&timeout=500ms", func() { time.Sleep(700 * time.Millisecond) }, http.StatusGatewayTimeout},
	} {
		_, ts, o := heldServer(t)
		held := -1
		restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.WCOJSearch, N: 10_000, Act: fault.Call, Func: func() {
			held = len(o.held.text)
			tc.strike()
		}}))
		resp := postQuery(t, ts, "acme", chainQuery, "strategy=wcoj"+tc.params)
		body := readBody(t, resp)
		restore()
		if held <= responseBuffer {
			t.Fatalf("%s: struck with %d bytes held, want more than %d", tc.name, held, responseBuffer)
		}
		if resp.StatusCode != tc.status || strings.Contains(body, "relation result") || !strings.HasPrefix(body, "{") || !strings.Contains(body, `"error"`) {
			t.Errorf("%s: status %d, body %.200q; want %d and the JSON error alone", tc.name, resp.StatusCode, body, tc.status)
		}
		if got := resp.Trailer.Get(ErrorTrailer); got != "" {
			t.Errorf("%s: trailer %s = %q on an answer nothing of which was sent", tc.name, ErrorTrailer, got)
		}
	}
}

// TestStreamHeldBufferIsBounded: the free-listed response keeps its side
// buffer for the next held answer while that is at most responseBuffer,
// and drops it past that — here after chainQuery's 12 000 held rows.
func TestStreamHeldBufferIsBounded(t *testing.T) {
	s, ts, o := heldServer(t)
	for _, tc := range []struct {
		query string
		kept  bool
	}{
		{"R2 * R3", true}, // 400 rows, about 5 KB: under the bound
		{chainQuery, false},
	} {
		resetCache(t, ts)
		resp := postQuery(t, ts, "acme", tc.query, "strategy=wcoj")
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK || !strings.HasSuffix(body, "\nend\n") {
			t.Fatalf("%s: status %d, %d bytes", tc.query, resp.StatusCode, len(body))
		}
		if got := s.response(); got != o {
			t.Fatalf("%s: the free list lost its response", tc.query)
		}
		if kept := cap(o.held.text) > 0; cap(o.held.text) > responseBuffer || kept != tc.kept {
			t.Errorf("%s: the free-listed response keeps a side buffer of %d bytes; want one (%v) of at most %d", tc.query, cap(o.held.text), tc.kept, responseBuffer)
		}
		s.release(o)
	}
}

// TestStreamHeldCountAllocatesNoRows: a first-sight ?count=1 of a cyclic
// gadget's answer, with the plan facts and the legs warm, counts the
// generic join's rows as they go by: the request allocates less than the
// answer's rows would occupy (rows × arity × 16 B), and stores nothing.
func TestStreamHeldCountAllocatesNoRows(t *testing.T) {
	c := gadget(t, 10, 10)
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Tenants: map[string]governor.Limits{"acme": {}}})
	s.Load("acme", c.Database())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	count := func() (string, uint64) {
		t.Helper()
		resetCache(t, ts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := postQuery(t, ts, "acme", phi.String(), "count=1&strategy=wcoj")
		body := readBody(t, resp)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("?count=1: status %d: %s", resp.StatusCode, body)
		}
		if _, _, _, entries := s.shared.Counters(); entries != 0 {
			t.Fatalf("a first-sight count stored %d answers, want none", entries)
		}
		return strings.TrimSpace(body), after.TotalAlloc - before.TotalAlloc
	}
	count() // plans the node and builds the legs and their tries
	least := uint64(1 << 62)
	var rows string
	for i := 0; i < 3; i++ {
		var n uint64
		rows, n = count()
		least = min(least, n)
	}
	built, err := algebra.Eval(phi, c.Database())
	if err != nil {
		t.Fatal(err)
	}
	answer := uint64(built.Len()) * uint64(relation.RowBytes(built.Scheme().Len()))
	t.Logf("a first-sight ?count=1 of %d rows × %d columns allocated %d bytes; the rows would be %d", built.Len(), built.Scheme().Len(), least, answer)
	if rows != fmt.Sprint(built.Len()) {
		t.Errorf("?count=1 answered %q, want %d", rows, built.Len())
	}
	if least >= answer {
		t.Errorf("a first-sight ?count=1 allocated %d bytes; the answer's rows are %d", least, answer)
	}
}

// TestStreamAdmissionAfterReset: a reset forgets what was asked. An answer
// asked twice — streamed, then stored — streams again on its first ask
// after a /v1/cache/reset and stores nothing, is stored on the second and
// served on the third. The plan facts survive the reset: the two asks that
// evaluate the node find them. For the tree join's answer (auto) and the
// generic join's (wcoj).
func TestStreamAdmissionAfterReset(t *testing.T) {
	for _, strategy := range []string{"auto", "wcoj"} {
		s, ts := newTestServer(t)
		ask := func() string {
			t.Helper()
			resp := postQuery(t, ts, "acme", chainQuery, "strategy="+strategy)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", strategy, resp.StatusCode)
			}
			return readBody(t, resp)
		}
		ask()
		want := ask()
		if _, _, _, entries := s.shared.Counters(); entries != 1 {
			t.Fatalf("%s: asked twice, %d answers stored, want 1", strategy, entries)
		}
		resetCache(t, ts)
		before := scrape(t, ts)
		_, misses0, _, _ := s.shared.Counters()
		for i, stage := range []struct{ misses, hits, entries int }{{1, 0, 0}, {2, 0, 1}, {2, 1, 1}} {
			if body := ask(); body != want {
				t.Errorf("%s, ask %d after the reset: %d bytes, before it %d", strategy, i+1, len(body), len(want))
			}
			hits, misses, _, entries := s.shared.Counters()
			if got := (struct{ misses, hits, entries int }{misses - misses0, hits, entries}); got != stage {
				t.Errorf("%s, after ask %d since the reset: %+v, want %+v", strategy, i+1, got, stage)
			}
		}
		after := scrape(t, ts)
		if hits, misses := after[obs.SeriesPlanFactsHits]-before[obs.SeriesPlanFactsHits], after[obs.SeriesPlanFactsMisses]-before[obs.SeriesPlanFactsMisses]; hits != 2 || misses != 0 {
			t.Errorf("%s: after the reset the node found its plan facts %v times and missed them %v; want 2 and 0", strategy, hits, misses)
		}
	}
}

// TestStreamHeldTextKeepsToTheMemoryBudget: a held answer's text is held
// to the request's memory budget. R * S over 200-byte values is 400 rows of
// about 410 bytes of text each; the generic join charges them at their
// width, 48 bytes a row, which a 64 KB budget admits. The first ask holds
// the text and stops it once past the budget, with a side buffer that never
// grew to the answer; it then builds the answer at its width, stores it and
// answers it, 200 as the second ask, which is served it, answers: the
// status does not depend on the ask.
func TestStreamHeldTextKeepsToTheMemoryBudget(t *testing.T) {
	const budget = 64 << 10
	s := New(Config{MaxConcurrent: 1, Tenants: map[string]governor.Limits{"acme": {MaxMemoryBytes: budget}}})
	s.Load("acme", longValuesDB())
	o := s.response()
	s.release(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	held := 0
	restore := fault.Set(fault.NewScript(fault.Rule{Point: fault.EvalNode, Every: true, Act: fault.Call, Func: func() {
		held = max(held, cap(o.held.text))
	}}))
	var bodies []string
	for i, stage := range []struct{ hits, entries int }{{0, 1}, {1, 1}} {
		resp := postQuery(t, ts, "acme", "R * S", "strategy=wcoj")
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Relquery-Rows") != "400" || len(body) < 400*400 || !strings.HasSuffix(body, "\nend\n") {
			t.Fatalf("ask %d: status %d, X-Relquery-Rows %q, %d bytes; want 200 and the 400 rows", i+1, resp.StatusCode, resp.Header.Get("X-Relquery-Rows"), len(body))
		}
		bodies = append(bodies, body)
		if hits, _, _, entries := s.shared.Counters(); hits != stage.hits || entries != stage.entries {
			t.Errorf("after ask %d: %d hits, %d stored; want %+v", i+1, hits, entries, stage)
		}
	}
	restore()
	if bodies[1] != bodies[0] {
		t.Errorf("the first ask answered %d bytes, the second %d", len(bodies[0]), len(bodies[1]))
	}
	if held == 0 || held > 2*budget {
		t.Errorf("the side buffer grew to %d bytes against a budget of %d", held, budget)
	}
	if got := s.response(); got != o || cap(o.held.text) > 2*budget {
		t.Errorf("the free-listed side buffer holds %d bytes against a budget of %d", cap(o.held.text), budget)
	}
}

// longValuesDB is R(A,B) and S(B,C), 40 rows each, whose A and C values
// are over 200 bytes long: R * S is 400 rows of about 410 bytes of text.
func longValuesDB() relation.Database {
	pad := strings.Repeat("v", 200)
	r := relation.New(relation.MustScheme("A", "B"))
	q := relation.New(relation.MustScheme("B", "C"))
	for i := 0; i < 40; i++ {
		r.MustAdd(relation.TupleOf(fmt.Sprintf("a%d%s", i, pad), fmt.Sprintf("b%d", i%4)))
		q.MustAdd(relation.TupleOf(fmt.Sprintf("b%d", i%4), fmt.Sprintf("c%d%s", i, pad)))
	}
	db := relation.NewDatabase()
	db.Put("R", r)
	db.Put("S", q)
	return db
}

// TestStreamHeldRebuildKeepsTheDeadline: the answer built after its held
// text passed the memory budget is built under what is left of the
// request's deadline, not a deadline of its own. A 400 ms deadline, and a
// 300 ms stall at the root of each of the two evaluations: either alone
// meets the deadline, the request does not — 504.
func TestStreamHeldRebuildKeepsTheDeadline(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, Tenants: map[string]governor.Limits{"acme": {MaxMemoryBytes: 64 << 10, Deadline: 400 * time.Millisecond}}})
	s.Load("acme", longValuesDB())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// R * S crosses algebra.node three times: its root and two operands.
	stall := func(n int64) fault.Rule {
		return fault.Rule{Point: fault.EvalNode, N: n, Act: fault.Sleep, Delay: 300 * time.Millisecond}
	}
	restore := fault.Set(fault.NewScript(stall(1), stall(4)))
	resp := postQuery(t, ts, "acme", "R * S", "strategy=wcoj")
	body := readBody(t, resp)
	restore()
	if resp.StatusCode != http.StatusGatewayTimeout || strings.Contains(body, "relation result") {
		t.Errorf("status %d, body %.200q; want 504 and the JSON error alone", resp.StatusCode, body)
	}
}
