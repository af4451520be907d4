package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/relation"
)

// TestPooledWriterStreamsByteEqual streams two different results through
// one pooled writer back to back: each response is the header and exactly
// what WriteRelation writes into a fresh buffer, nothing of the first
// result reaches the second response, and once a response is done the
// writer no longer points at its ResponseWriter — a write through it goes
// nowhere (it has no destination at all) instead of into a finished
// request.
func TestPooledWriterStreamsByteEqual(t *testing.T) {
	big := relation.New(relation.MustScheme("A", "B"))
	for i := 0; i < 6000; i++ { // past the 32 KB buffer, so it flushes mid-stream
		big.MustAdd(relation.TupleOf(fmt.Sprint("a", i), fmt.Sprint("b", i%7)))
	}
	small := relation.New(relation.MustScheme("C"))
	small.MustAdd(relation.TupleOf("only"))
	o := New(Config{}).response()
	var last *httptest.ResponseRecorder
	for _, out := range []*relation.Relation{big, small} {
		expr := algebra.MustOperand("T", out.Scheme())
		var want bytes.Buffer
		fmt.Fprintf(&want, "# %s\n# %d tuples over %v\n", expr, out.Len(), out.Scheme())
		if err := relation.WriteRelation(&want, "result", out.Clone()); err != nil {
			t.Fatal(err)
		}
		last = httptest.NewRecorder()
		o.q = queryRequest{strategy: "auto"}
		o.open(last, expr, time.Now())
		relation.Replay(out, o)
		o.finish()
		o.close()
		if !bytes.Equal(last.Body.Bytes(), want.Bytes()) {
			t.Fatalf("%d-row result through the pooled writer: %d bytes, want %d\n%.200s", out.Len(), last.Body.Len(), want.Len(), last.Body.String())
		}
	}
	sent := last.Body.Len()
	func() {
		defer func() { _ = recover() }() // flushing to no destination panics; reaching the response would not
		_, _ = o.buf.WriteString("late")
		_ = o.buf.Flush()
	}()
	if last.Body.Len() != sent {
		t.Error("the pooled writer still points at a finished response")
	}
}

// TestUploadBodyReadOnce: reading the upload into one buffer sized from
// Content-Length answers exactly what reading it with ReadRelation did —
// status and body, byte for byte — whether the declared length is the
// truth, short of it, past it or absent, for bodies that parse, bodies the
// codec rejects and bodies over the upload cap.
func TestUploadBodyReadOnce(t *testing.T) {
	const limit = 256
	s := New(Config{MaxBodyBytes: limit})
	h := s.Handler()
	old := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		_, rel, err := relation.ReadRelation(http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(body)), limit))
		if err != nil {
			bodyError(rec, err)
			return rec.Code, rec.Body.String()
		}
		writeJSON(rec, http.StatusOK, relationInfo{Name: "X", Rows: rel.Len(), Scheme: rel.Scheme().String(), Fingerprint: relation.Fingerprint(rel)})
		return rec.Code, rec.Body.String()
	}
	bodies := map[string]string{
		"bare":             "A B\n1 x\n2 y\n",
		"block":            "relation R\nA B\n1 x\nend\n",
		"two-field bare":   "relation B\n1 x\n",
		"empty":            "",
		"comments only":    "# nothing\n\n",
		"arity":            "A B\n1 x\n2\n",
		"bad scheme":       "A A\n1 1\n",
		"unclosed block":   "relation R\nA B C\n1 x\n",
		"two blocks":       "relation R\nA\n1\nend\nrelation S\nA\n1\nend\n",
		"at the cap":       "A\n" + strings.Repeat("v\n", (limit-2)/2),
		"one over":         "A\n" + strings.Repeat("v\n", (limit-2)/2) + "w",
		"far over":         "A\n" + strings.Repeat("some value\n", 100),
		"no final newline": "A B\n1 x",
	}
	for name, body := range bodies {
		wantCode, wantBody := old(body)
		for _, declared := range []int64{int64(len(body)), int64(len(body)) / 2, int64(len(body))*2 + 7, 1 << 40, 0, -1} {
			req := httptest.NewRequest(http.MethodPut, "/v1/tenants/t/relations/X", io.NopCloser(strings.NewReader(body)))
			req.ContentLength = declared
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != wantCode || rec.Body.String() != wantBody {
				t.Errorf("%s, Content-Length %d of %d: %d %q, want %d %q", name, declared, len(body), rec.Code, rec.Body.String(), wantCode, wantBody)
			}
		}
	}
	if code, _ := old(bodies["far over"]); code != http.StatusRequestEntityTooLarge {
		t.Errorf("a body over the cap answered %d, want 413", code)
	}
	if code, _ := old(bodies["at the cap"]); code != http.StatusOK {
		t.Errorf("a body at the cap answered %d, want 200", code)
	}
}

// TestCatalogBodyReadOnce: a catalog is read into one buffer sized from
// Content-Length, as an upload is, and answers exactly what reading it
// with ReadDatabase does — status and body, byte for byte — whether the
// declared length is the truth, short of it, past it or absent, for
// catalogs that parse, catalogs the codec rejects and bodies at and over
// the cap.
func TestCatalogBodyReadOnce(t *testing.T) {
	const limit = 256
	s, ref := New(Config{MaxBodyBytes: limit}), New(Config{MaxBodyBytes: limit})
	h := s.Handler()
	tenants := 0 // every load goes to a tenant of its own
	old := func(body string) (int, string) {
		rec := httptest.NewRecorder()
		db, err := relation.ReadDatabase(http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(body)), limit))
		if err != nil {
			bodyError(rec, err)
			return rec.Code, rec.Body.String()
		}
		tenants++
		tn := ref.tenant(fmt.Sprint("t", tenants))
		tn.loadAll(db)
		writeJSON(rec, http.StatusOK, tn.listing())
		return rec.Code, rec.Body.String()
	}
	atCap := "relation R\nAB\n" + strings.Repeat("v\n", (limit-18)/2) + "end\n"
	bodies := map[string]string{
		"one block":        "relation R\nA B\n1 x\n2 y\nend\n",
		"two blocks":       "# catalog\nrelation R\nA\n1\nend\n\nrelation S\nB C\nx y\nend\n",
		"crlf":             "relation R\r\nA B\r\n1 x\r\nend\r\n",
		"empty":            "",
		"comments only":    "# nothing\n\n",
		"bare":             "A B\n1 x\n",
		"arity":            "relation R\nA B\n1 x\n2\nend\n",
		"bad scheme":       "relation R\nA A\nend\n",
		"unclosed block":   "relation R\nA B C\n1 x\n",
		"duplicate name":   "relation R\nA\n1\nend\nrelation R\nA\n2\nend\n",
		"missing scheme":   "relation R\n\n",
		"text after end":   "relation R\nA\n1\nend\ntrailing\n",
		"at the cap":       atCap,
		"one over":         atCap + "\n",
		"far over":         "relation R\nA\n" + strings.Repeat("some value\n", 100) + "end\n",
		"no final newline": "relation R\nA B\n1 x\nend",
	}
	if len(bodies["at the cap"]) != limit {
		t.Fatalf("the body at the cap is %d bytes, want %d", len(bodies["at the cap"]), limit)
	}
	for name, body := range bodies {
		wantCode, wantBody := old(body)
		for _, declared := range []int64{int64(len(body)), int64(len(body)) / 2, int64(len(body))*2 + 7, 1 << 40, 0, -1} {
			tenants++
			req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/tenants/t%d/catalog", tenants), io.NopCloser(strings.NewReader(body)))
			req.ContentLength = declared
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != wantCode || rec.Body.String() != wantBody {
				t.Errorf("%s, Content-Length %d of %d: %d %q, want %d %q", name, declared, len(body), rec.Code, rec.Body.String(), wantCode, wantBody)
			}
		}
	}
	for name, want := range map[string]int{"far over": http.StatusRequestEntityTooLarge, "one over": http.StatusRequestEntityTooLarge, "at the cap": http.StatusOK, "two blocks": http.StatusOK} {
		if code, _ := old(bodies[name]); code != want {
			t.Errorf("%s answered %d, want %d", name, code, want)
		}
	}
}

// TestUploadReadsIntoItsBuffer: a body of its declared length is read
// straight into the one buffer the string is made of — one allocation, no
// copy window — and a body with no declared length, or longer or shorter
// than declared, reads whole all the same. A query's body is read into its
// response's buffer, kept from request to request: no allocation once the
// buffer has held a body that long, and a body past maxQueryBytes is an
// *http.MaxBytesError.
func TestUploadReadsIntoItsBuffer(t *testing.T) {
	body := strings.Repeat("a1 b1\n", 2000)
	src := strings.NewReader(body)
	allocs := testing.AllocsPerRun(20, func() {
		src.Reset(body)
		if text, err := readUpload(src, int64(len(body))); err != nil || len(text) != len(body) {
			t.Fatal(len(text), err)
		}
	})
	if allocs != 1 {
		t.Errorf("reading a %d-byte body of its declared length made %v allocations, want 1", len(body), allocs)
	}
	for _, declared := range []int64{-1, 0, 1, int64(len(body)) / 2, int64(len(body)) - 1, int64(len(body)) + 1, 2 * int64(len(body))} {
		src.Reset(body)
		if text, err := readUpload(iotest.OneByteReader(src), declared); err != nil || text != body {
			t.Errorf("Content-Length %d of %d: read %d bytes, %v", declared, len(body), len(text), err)
		}
	}

	req := httptest.NewRequest("POST", "/v1/query", src)
	var buf []byte
	allocs = testing.AllocsPerRun(20, func() {
		src.Reset(body)
		var err error
		if buf, err = readQuery(buf[:0], req); err != nil || string(buf) != body {
			t.Fatal(len(buf), err)
		}
	})
	if allocs != 0 {
		t.Errorf("reading a %d-byte query body into a warm buffer made %v allocations, want 0", len(body), allocs)
	}
	for _, size := range []int{maxQueryBytes, maxQueryBytes + 1} {
		src.Reset(strings.Repeat("x", size))
		req.ContentLength = -1
		got, err := readQuery(nil, req)
		var tooLarge *http.MaxBytesError
		if over := errors.As(err, &tooLarge); over != (size > maxQueryBytes) || !over && len(got) != size {
			t.Errorf("a %d-byte query body: %d bytes read, %v", size, len(got), err)
		}
	}
}

// TestResponseSurvivesGC: a response put back on the server's free list is
// the one handed out next, even across a garbage collection — a sync.Pool
// would have dropped it, and each relbench pass, which ends with two GCs,
// paid for a new 32 KB buffer. The list holds one response per evaluation
// slot and drops the rest.
func TestResponseSurvivesGC(t *testing.T) {
	s := New(Config{MaxConcurrent: 2})
	a, b, c := s.response(), s.response(), s.response()
	for _, o := range []*response{a, b, c} {
		s.release(o)
	}
	runtime.GC()
	runtime.GC()
	if got := []*response{s.response(), s.response()}; got[0] != a || got[1] != b {
		t.Error("a released response did not survive a GC")
	}
	if s.response() == c {
		t.Error("the free list kept more responses than evaluation slots")
	}
	if cap(New(Config{MaxConcurrent: -1}).responses) != DefaultMaxConcurrent {
		t.Error("an unbounded server's free list is not DefaultMaxConcurrent long")
	}
}

// TestAnswerHeadersMatchSet: the headers answerHeaders assigns are
// the ones a Header.Set per header sets, keys and values, with the
// Content-Length of a whole answer or without one, allocating one string
// for all the values' text and one slice for the six values, where a Set
// per header allocates a slice each and the numbers and the wall time a
// string each.
func TestAnswerHeadersMatchSet(t *testing.T) {
	for _, length := range []int{-1, 0, 40960} {
		got := http.Header{}
		answerHeaders(got, 1234, 1500*time.Microsecond, "auto", 101, length)
		want := http.Header{}
		want.Set("X-Relquery-Rows", "1234")
		want.Set("X-Relquery-Wall", "1.5ms")
		want.Set("X-Relquery-Strategy", "auto")
		want.Set("X-Relquery-Cache-Hits", "101")
		want.Set("Content-Type", "text/plain; charset=utf-8")
		if length >= 0 {
			want.Set("Content-Length", strconv.Itoa(length))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("answerHeaders set %v, want %v", got, want)
		}
	}
	h := make(http.Header, 8)
	if n := testing.AllocsPerRun(100, func() { answerHeaders(h, 1234, time.Millisecond+time.Nanosecond, "yannakakis", 101, 40960) }); n != 2 {
		t.Errorf("answerHeaders allocates %v times, want 2", n)
	}
}
