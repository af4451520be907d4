package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/cnf"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
	"relquery/internal/telemetry"
)

// triangleQuery is cyclic and has three inputs, so a cold auto request
// solves the n-ary cover LP and runs the greedy simulation (Analyze over
// every leg, one subset LP); the simulation is the only caller of
// Analyze and always solves an LP on three or more inputs, so a request
// that solves no LP scanned no rows to plan.
const triangleQuery = "pi[A B](T) * pi[B C](T) * pi[A C](T)"

func triangle(rows int) *relation.Relation {
	tri := relation.New(relation.MustScheme("A", "B", "C"))
	for i := 0; i < rows; i++ {
		tri.MustAdd(relation.TupleOf(fmt.Sprint(i%5), fmt.Sprint(i%8), fmt.Sprint(i%11)))
	}
	return tri
}

func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	metrics, err := telemetry.ParseMetrics(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return metrics
}

// planning is how far the three planning counters moved across do.
func planning(t *testing.T, ts *httptest.Server, do func()) (hits, misses, lps float64) {
	t.Helper()
	before := scrape(t, ts)
	do()
	after := scrape(t, ts)
	delta := func(series string) float64 { return after[series] - before[series] }
	return delta(obs.SeriesPlanFactsHits), delta(obs.SeriesPlanFactsMisses), delta(obs.SeriesCoverLPSolves)
}

func putRelation(t *testing.T, ts *httptest.Server, tenant, name string, r *relation.Relation) {
	t.Helper()
	var body bytes.Buffer
	if err := relation.WriteRelation(&body, name, r); err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/tenants/"+tenant+"/relations/"+name, &body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT %s: status %d", name, resp.StatusCode)
	}
}

func resetCache(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/cache/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestWarmRequestPlansNothing: the second of two identical requests finds
// every planning fact in the store — across a /v1/cache/reset, which drops
// the results and forces the evaluation to run again — and answers with
// the same bytes. Facts are keyed by content: a changed leg misses and
// plans again, the same content uploaded again hits.
func TestWarmRequestPlansNothing(t *testing.T) {
	s, ts := newTestServer(t)
	s.Load("acme", relation.Single("T", triangle(40)))
	query := func() (status int, rows, body string) {
		resp := postQuery(t, ts, "acme", triangleQuery, "")
		return resp.StatusCode, resp.Header.Get("X-Relquery-Rows"), readBody(t, resp)
	}

	var coldBody string
	_, misses, lps := planning(t, ts, func() {
		var status int
		if status, _, coldBody = query(); status != http.StatusOK {
			t.Fatalf("cold query: status %d: %s", status, coldBody)
		}
	})
	if misses < 1 || lps < 2 {
		t.Fatalf("cold request: %v facts misses, %v LPs; want the node planned from nothing", misses, lps)
	}

	resetCache(t, ts)
	evaluated := scrape(t, ts)[obs.SeriesJoins]
	hits, misses, lps := planning(t, ts, func() {
		if status, _, body := query(); status != http.StatusOK || body != coldBody {
			t.Errorf("warm query: status %d, body identical = %v", status, body == coldBody)
		}
	})
	if scrape(t, ts)[obs.SeriesJoins] == evaluated {
		t.Fatal("the warm request was answered from the result cache: it proves nothing about planning")
	}
	if hits < 1 || misses != 0 || lps != 0 {
		t.Errorf("warm request: %v hits, %v misses, %v LPs; want ≥ 1, 0, 0", hits, misses, lps)
	}

	// A changed leg: new fingerprint, new key, new answer.
	_, coldRows, _ := query()
	putRelation(t, ts, "acme", "T", triangle(41))
	_, misses, lps = planning(t, ts, func() {
		if status, rows, _ := query(); status != http.StatusOK || rows == coldRows {
			t.Errorf("query after the upload: status %d, rows %s (before: %s)", status, rows, coldRows)
		}
	})
	if misses < 1 || lps < 2 {
		t.Errorf("after a changed leg: %v misses, %v LPs; want the node planned again", misses, lps)
	}

	// The old content back: the facts computed for it are still there.
	putRelation(t, ts, "acme", "T", triangle(40))
	resetCache(t, ts)
	hits, misses, lps = planning(t, ts, func() {
		if status, _, body := query(); status != http.StatusOK || body != coldBody {
			t.Errorf("query after re-uploading the first content: status %d, body identical = %v", status, body == coldBody)
		}
	})
	if hits < 1 || misses != 0 || lps != 0 {
		t.Errorf("after re-uploading the first content: %v hits, %v misses, %v LPs; want ≥ 1, 0, 0", hits, misses, lps)
	}
}

// TestWarmQueryBuildsNoTable: the tree join's edge tables are facts of the
// catalog relations, so across a /v1/cache/reset a second query over an
// unchanged catalog builds none, and a PUT of one relation rebuilds that
// relation's table and no other. Measured in bytes allocated while the
// query is answered: the chain R1 ∗ R2 ∗ R3 joins R1 and R3 as children
// of R2, n rows each, so a table is its row chain, its group arrays and
// its index, at least 4 bytes a row, where the tree join keeps a bit per
// row and per leaf group besides the one row that reaches the answer: a
// warm query costs at most a quarter of the cold one's two tables. Two
// queries over an unchanged catalog cost the same, the cold one costs two
// tables more, and the one after the PUT one table more. The joins make
// their working arrays (join.FreshScratch): a scratch reused from the
// request before would hide them.
func TestWarmQueryBuildsNoTable(t *testing.T) {
	join.FreshScratch(t)
	const n = 20_000
	leg := func(a, b string) *relation.Relation {
		r := relation.New(relation.MustScheme(relation.Attribute(a), relation.Attribute(b)))
		for i := 0; i < n; i++ {
			r.MustAdd(relation.TupleOf(fmt.Sprintf("%s%d", a, i), fmt.Sprintf("%s%d", b, i)))
		}
		return r
	}
	db := relation.NewDatabase()
	db.Put("R1", leg("A", "B"))
	db.Put("R2", leg("B", "C"))
	r3 := relation.New(relation.MustScheme("C", "D"))
	for i := 0; i < n; i++ {
		r3.MustAdd(relation.TupleOf(fmt.Sprintf("x%d", i), fmt.Sprintf("D%d", i)))
	}
	r3.MustAdd(relation.TupleOf("C0", "D*")) // the one row of R2 ∗ R3
	db.Put("R3", r3)
	s := New(Config{Tenants: map[string]governor.Limits{"acme": {}}})
	s.Load("acme", db)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	query := func() uint64 {
		t.Helper()
		resetCache(t, ts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := postQuery(t, ts, "acme", chainQuery, "strategy=yannakakis")
		body := readBody(t, resp)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Relquery-Rows") != "1" {
			t.Fatalf("status %d, %s rows: %.200s", resp.StatusCode, resp.Header.Get("X-Relquery-Rows"), body)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	cold, warm := query(), query()
	putRelation(t, ts, "acme", "R3", r3) // the same content, as a new relation
	put, again := query(), query()
	tables := int64(cold) - int64(warm)
	t.Logf("bytes allocated: cold %d, warm %d, after the PUT %d, then %d", cold, warm, put, again)
	if tables < 2*4*n {
		t.Errorf("the cold query allocated %d bytes more than a warm one: less than two tables' row chains", tables)
	}
	if int64(warm) > tables/4 || int64(again) > tables/4 {
		t.Errorf("a query over an unchanged catalog allocated %d and %d bytes against %d for the cold one's two tables", warm, again, tables)
	}
	if d := int64(again) - int64(warm); d > tables/8 || -d > tables/8 {
		t.Errorf("two queries over an unchanged catalog allocated %d and %d bytes, against %d for the cold one's two tables", warm, again, tables)
	}
	if rebuilt := int64(put) - int64(warm); rebuilt < tables/4 || rebuilt > 3*tables/4 {
		t.Errorf("after a PUT of R3 the query allocated %d bytes more than a warm one: not one table of two (%d)", rebuilt, tables)
	}
}

// gadget is the Lemma 1 construction of a random 3CNF with m clauses over
// n variables, every one of them used.
func gadget(t *testing.T, n, m int) *reduction.Construction {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m)))
	var g *cnf.Formula
	for g == nil || !g.AllVarsUsed() {
		var err error
		if g, err = cnf.Random3CNF(rng, n, m); err != nil {
			t.Fatal(err)
		}
	}
	c, err := reduction.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestWarmQueryBuildsNoProjection: φ_G's m+1 legs are projections of R_G,
// facts of the catalog relation, and so are the generic join's tries on
// them; across a /v1/cache/reset a second φ_G query over an unchanged R_G
// builds no projection and sorts no trie, and a PUT of R_G with the same
// content, a new relation, builds them again. Measured in bytes allocated
// while the query is answered, against what the legs and their tries hold.
func TestWarmQueryBuildsNoProjection(t *testing.T) {
	c := gadget(t, 8, 14) // R_G: 99 rows × 114 columns
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Tenants: map[string]governor.Limits{"acme": {}}})
	s.Load("acme", c.Database())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var body string
	query := func() uint64 {
		t.Helper()
		resetCache(t, ts)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := postQuery(t, ts, "acme", phi.String(), "strategy=wcoj")
		got := readBody(t, resp)
		runtime.ReadMemStats(&after)
		if resp.StatusCode != http.StatusOK || (body != "" && got != body) {
			t.Fatalf("status %d, body identical to the first = %v: %.200s", resp.StatusCode, got == body, got)
		}
		body = got
		return after.TotalAlloc - before.TotalAlloc
	}
	cold, warm, again := query(), query(), query()
	putRelation(t, ts, "acme", c.OperandName(), c.R) // the same content, as a new relation
	put := query()

	// What the legs and their tries hold: the least a build allocates.
	var facts uint64
	for _, leg := range phi.(*algebra.Join).Args() {
		p, err := c.R.Projection(leg.Scheme())
		if err != nil {
			t.Fatal(err)
		}
		facts += uint64(p.Bytes() + 4*int64(p.Len()))
	}
	t.Logf("R_G %d×%d; bytes allocated: cold %d, warm %d, again %d, after the PUT %d; legs and tries hold %d",
		c.R.Len(), c.R.Scheme().Len(), cold, warm, again, put, facts)
	// The PUT's query plans nothing either (same content, same plan facts):
	// what it allocates beyond a warm one is the legs and tries.
	if put < again+facts {
		t.Errorf("the query after the PUT allocated %d bytes, a warm one %d: the warm one built legs or tries of %d, or the PUT's did not", put, again, facts)
	}
	// Two warm queries differ by tens of kilobytes of pooled buffers.
	if again > warm+facts/2 || warm > again+facts/2 {
		t.Errorf("two warm queries allocated %d and %d bytes: one of them built legs or tries of %d", warm, again, facts)
	}
}
