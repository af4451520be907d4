package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
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
		o.open(last, expr, &queryRequest{strategy: "auto"}, time.Now())
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

// TestUploadReadsIntoItsBuffer: a body of its declared length is read
// straight into the one buffer the string is made of — one allocation, no
// copy window — and a body with no declared length, or longer or shorter
// than declared, reads whole all the same.
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
