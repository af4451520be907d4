package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"relquery/internal/cnf"
	"relquery/internal/reduction"
	"relquery/internal/relation"
	"relquery/internal/sat"
)

// sizes scales every workload. reference is what BENCHMARK.json measures;
// tiny is the smoke test's.
type sizes struct {
	gadgets       int // tenants of cyclic_auto and cyclic_greedy
	acyclic       int // tenants of acyclic_auto
	rows          int // acyclic scale: every relation holds rows+1 tuples
	warmTenants   int // tenants of repeat_warm, three quarters gadgets and one quarter paths
	warmQueries   int // queries per repeat_warm pass
	bystanders    int // untouched relations per repeat_warm tenant
	bystanderRows int
	churnTenants  int
	churnCycles   int // upload+query cycles per churn_mixed pass
	sample        int // requests replayed per workload
	curve         int // gadgets per point of the growth curve
	floorProbes   int // /healthz round trips for server.http_floor_ms
	// shapes names the fixed sample the gadget formulas come from (see
	// buildWorkload). Every measurement uses sample 0, whatever the seed;
	// the smoke test also puts another sample's formulas before the oracle.
	shapes int64
}

var (
	reference = sizes{gadgets: 300, acyclic: 150, rows: 1024, warmTenants: 16, warmQueries: 1000,
		bystanders: 24, bystanderRows: 256, churnTenants: 64, churnCycles: 300,
		sample: 100, curve: 10, floorProbes: 200}
	tiny = sizes{gadgets: 3, acyclic: 3, rows: 16, warmTenants: 4, warmQueries: 24,
		bystanders: 2, bystanderRows: 8, churnTenants: 3, churnCycles: 12,
		sample: 4, curve: 1, floorProbes: 5}
)

// workloadNames is the order workloads are listed, set up and interleaved.
var workloadNames = []string{"cyclic_auto", "cyclic_greedy", "acyclic_auto", "repeat_warm", "churn_mixed"}

// tenant is one generated catalog with the one query its owner sends.
type tenant struct {
	name      string
	db        relation.Database // what the catalog upload holds; the replay reads it
	catalog   []byte            // db in codec text, the upload body
	query     string
	inputRows int // rows of the relations the query names

	// The independent expectation, checked against every pass-0 answer.
	want     digest
	wantRows int
	// What pass 0 saw; measured passes compare against it.
	bodyLen int

	// churn_mixed only: the relation each cycle replaces, and how many
	// times it has been regenerated.
	leg    *legSpec
	legGen int
}

// workload is one traffic mix against its own server.
type workload struct {
	name     string
	strategy string
	tenants  []*tenant
	requests []*tenant // one pass, in issue order
	churn    bool      // every query follows an upload of the tenant's regenerated leg
	cold     bool      // reset the shared cache after each pass
	passes   int       // measured passes when run length is not set by a timer
}

// buildWorkload generates the named workload from the seed alone.
//
// What a request costs is fixed by the workload, not by the seed: the
// formula shapes behind the gadgets are a fixed sample of random 3CNFs,
// the acyclic families have one shape each, and every tenant is asked
// equally often. The seed draws the surface — which isomorphic copy of
// each formula (variables renamed, polarities flipped), which tenant holds
// it, the salt in every tenant name and value, the order of requests. No
// two seeds send the same bytes, while the counts (allocations, peak
// rows) agree across seeds to well under their bounds, so those bounds can
// be tight.
func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	// One stream per generator, so cyclic_auto and cyclic_greedy get the
	// same gadgets.
	stream := func(k int64) *rand.Rand { return rand.New(rand.NewSource(seed*8 + k)) }
	salt := fmt.Sprintf("%03x", stream(0).Intn(1<<12))
	w := &workload{name: name, strategy: "auto", cold: true}
	var err error
	switch name {
	case "cyclic_auto":
		w.passes = 15
		w.tenants, err = gadgetTenants(stream(1), "g"+salt, sz.gadgets, 7, sz.shapes)
	case "cyclic_greedy":
		w.passes = 10
		w.strategy = "hash"
		w.tenants, err = gadgetTenants(stream(1), "g"+salt, sz.gadgets, 7, sz.shapes)
	case "acyclic_auto":
		w.passes = 30
		w.tenants, err = acyclicTenants("a"+salt, sz.acyclic, sz.rows, 3)
	case "repeat_warm":
		w.passes = 16
		w.cold = false
		// Three small answers to one large: the median request is then a
		// gadget and the p90 request a path. Half and half would put the
		// median in the gap between the two, where it jumps by 50 % when
		// either side moves by 5 %.
		gadgets := sz.warmTenants * 3 / 4
		w.tenants, err = gadgetTenants(stream(2), "wg"+salt, gadgets, 7, sz.shapes+1)
		if err == nil {
			var paths []*tenant
			paths, err = acyclicTenants("wp"+salt, sz.warmTenants-gadgets, sz.rows, 1)
			w.tenants = append(w.tenants, paths...)
		}
		for _, t := range w.tenants {
			addBystanders(t, sz.bystanders, sz.bystanderRows)
		}
	case "churn_mixed":
		w.passes = 16
		w.churn = true
		w.tenants, err = acyclicTenants("c"+salt, sz.churnTenants, sz.rows, 3)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, t := range w.tenants {
		var buf bytes.Buffer
		if err := relation.WriteDatabase(&buf, t.db); err != nil {
			return nil, err
		}
		t.catalog = buf.Bytes()
	}
	switch name {
	case "repeat_warm":
		w.requests = evenly(stream(3), w.tenants, sz.warmQueries)
	case "churn_mixed":
		w.requests = evenly(stream(4), w.tenants, sz.churnCycles)
	default:
		w.requests = w.tenants
	}
	return w, nil
}

// evenly returns n requests that name every tenant equally often (the
// first n mod len(tenants) once more), in seeded order.
func evenly(rng *rand.Rand, tenants []*tenant, n int) []*tenant {
	out := make([]*tenant, n)
	for i := range out {
		out[i] = tenants[i%len(tenants)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// gadgetTenants builds n tenants each holding the Lemma 1 relation R_G of
// a 3CNF G with m clauses, and asking φ_G. The shapes come from sample
// number `sample` of gadgetShapes; rng picks each one's isomorphic copy and
// its tenant. The expectation is the lemma's right-hand side, built from
// the SAT substrate and never from a join.
func gadgetTenants(rng *rand.Rand, prefix string, n, m int, sample int64) ([]*tenant, error) {
	shapes, err := gadgetShapes(sample, n, m)
	if err != nil {
		return nil, err
	}
	rng.Shuffle(n, func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	out := make([]*tenant, 0, n)
	for i, shape := range shapes {
		c, err := reduction.New(isomorphicCopy(rng, shape))
		if err != nil {
			return nil, err
		}
		phi, err := c.PhiG()
		if err != nil {
			return nil, err
		}
		want, err := c.ExpectedPhiResult()
		if err != nil {
			return nil, err
		}
		models, err := sat.CountModels(c.G)
		if err != nil {
			return nil, err
		}
		out = append(out, &tenant{
			name:      prefix + strconv.Itoa(i),
			db:        c.Database(),
			query:     phi.String(),
			inputRows: c.R.Len(),
			want:      digestRelation(want),
			wantRows:  c.R.Len() + int(models),
		})
	}
	return out, nil
}

// gadgetVars is the variable count of every gadget formula.
const gadgetVars = 8

// gadgetShapes returns a fixed sample of n random 3CNFs with m clauses
// that use all gadgetVars variables: the same formulas whatever the seed.
func gadgetShapes(sample int64, n, m int) ([]*cnf.Formula, error) {
	rng := rand.New(rand.NewSource(1983 + sample))
	shapes := make([]*cnf.Formula, 0, n)
	for len(shapes) < n {
		g, err := cnf.Random3CNF(rng, gadgetVars, m)
		if err != nil {
			return nil, err
		}
		if g.AllVarsUsed() {
			shapes = append(shapes, g)
		}
	}
	return shapes, nil
}

// isomorphicCopy renames g's variables by a random permutation and flips
// the polarity of a random subset: another formula with the same models up
// to that renaming, and the same joins up to column names and values.
func isomorphicCopy(rng *rand.Rand, g *cnf.Formula) *cnf.Formula {
	rename := rng.Perm(g.NumVars)
	flip := rng.Intn(1 << g.NumVars)
	out := g.Clone()
	for _, clause := range out.Clauses {
		for k, l := range clause {
			v := rename[l.Var()-1]
			copied := cnf.Lit(v + 1)
			if l.Pos() == (flip>>v&1 == 1) {
				copied = copied.Neg()
			}
			clause[k] = copied
		}
	}
	return out
}

// relSpec is one generated relation before it becomes a relation.Relation.
type relSpec struct {
	name  string
	attrs []string
	rows  [][]string
}

func (s relSpec) relation() (*relation.Relation, error) {
	attrs := make([]relation.Attribute, len(s.attrs))
	for i, a := range s.attrs {
		attrs[i] = relation.Attribute(a)
	}
	scheme, err := relation.NewScheme(attrs...)
	if err != nil {
		return nil, err
	}
	return relation.FromRows(scheme, s.rows...)
}

// legSpec is the relation of an acyclic family that churn_mixed replaces.
// Regenerating it changes only dangling values: the one tuple that
// reaches the join result stays, so the answer does not change while the
// relation's fingerprint does.
type legSpec struct {
	family, rows int
	prefix       string
}

var legNames = [...]string{"R1", "L1", "D2"}
var legSchemes = [...]string{"A B", "A B", "B E"}

// row returns the leg's i-th tuple at regeneration gen; i == rows is the
// live tuple.
func (l legSpec) row(gen, i int) (string, string) {
	p := l.prefix + "."
	fresh := func(s string) string { return p + s + strconv.Itoa(gen) + "_" + strconv.Itoa(i) }
	switch {
	case l.family == 0 && i < l.rows:
		return fresh("a"), p + "b0"
	case l.family == 0:
		return p + "a*", p + "b1"
	case l.family == 1 && i < l.rows:
		return p + "h0", fresh("b")
	case l.family == 1:
		return p + "h1", p + "b*"
	case i < l.rows:
		return fresh("bdead"), p + "e" + strconv.Itoa(i)
	default:
		return p + "b*", p + "e*"
	}
}

// spec builds the leg at regeneration gen.
func (l legSpec) spec(gen int) relSpec {
	s := relSpec{name: legNames[l.family], attrs: strings.Fields(legSchemes[l.family])}
	for i := 0; i <= l.rows; i++ {
		a, b := l.row(gen, i)
		s.rows = append(s.rows, []string{a, b})
	}
	return s
}

// body appends the leg at regeneration gen in bare codec text: the scheme
// line, then the tuples.
func (l legSpec) body(buf *bytes.Buffer, gen int) {
	buf.WriteString(legSchemes[l.family])
	buf.WriteByte('\n')
	for i := 0; i <= l.rows; i++ {
		a, b := l.row(gen, i)
		buf.WriteString(a)
		buf.WriteByte(' ')
		buf.WriteString(b)
		buf.WriteByte('\n')
	}
}

// acyclicFamily builds the path (0), star (1) or snowflake (2) family of
// acyclic_test.go at n+1 rows per relation. Every value carries the
// tenant's prefix, so no two tenants share a cache entry. answer is the
// n+1-row join result, written down directly.
func acyclicFamily(family int, prefix string, n int) (rels []relSpec, answer relSpec) {
	v := func(s string) string { return prefix + "." + s }
	vi := func(s string, i int) string { return prefix + "." + s + strconv.Itoa(i) }
	add := func(r *relSpec, vals ...string) { r.rows = append(r.rows, vals) }
	leg := legSpec{family: family, rows: n, prefix: prefix}.spec(0)
	switch family {
	case 0: // path A–B–C–D, dangling tuples on both outer legs
		r2 := relSpec{name: "R2", attrs: []string{"B", "C"}}
		r3 := relSpec{name: "R3", attrs: []string{"C", "D"}}
		answer = relSpec{attrs: []string{"A", "B", "C", "D"}}
		for i := 0; i < n; i++ {
			add(&r2, v("b0"), vi("c", i))
		}
		add(&r2, v("b1"), v("c*"))
		for i := 0; i <= n; i++ {
			add(&r3, v("c*"), vi("d", i))
			add(&answer, v("a*"), v("b1"), v("c*"), vi("d", i))
		}
		return []relSpec{leg, r2, r3}, answer
	case 1: // star around hub A: two legs fan out on h0, the third knows only h1
		l2 := relSpec{name: "L2", attrs: []string{"A", "C"}}
		l3 := relSpec{name: "L3", attrs: []string{"A", "D"}}
		answer = relSpec{attrs: []string{"A", "B", "C", "D"}}
		for i := 0; i < n; i++ {
			add(&l2, v("h0"), vi("c", i))
		}
		add(&l2, v("h1"), v("c*"))
		for i := 0; i <= n; i++ {
			add(&l3, v("h1"), vi("d", i))
			add(&answer, v("h1"), v("b*"), v("c*"), vi("d", i))
		}
		return []relSpec{leg, l2, l3}, answer
	default: // snowflake: fact over A B C with one dimension arm per attribute
		fact := relSpec{name: "FACT", attrs: []string{"A", "B", "C"}}
		d1 := relSpec{name: "D1", attrs: []string{"A", "D"}}
		d3 := relSpec{name: "D3", attrs: []string{"C", "F"}}
		answer = relSpec{attrs: []string{"A", "B", "C", "D", "E", "F"}}
		for i := 0; i < n; i++ {
			add(&fact, v("a0"), vi("b", i), vi("c", i))
			add(&d1, v("a0"), vi("d", i))
		}
		add(&fact, v("a1"), v("b*"), v("c*"))
		add(&d1, v("a1"), v("d*"))
		for i := 0; i <= n; i++ {
			add(&d3, v("c*"), vi("f", i))
			add(&answer, v("a1"), v("b*"), v("c*"), v("d*"), v("e*"), vi("f", i))
		}
		return []relSpec{fact, d1, leg, d3}, answer
	}
}

// acyclicTenants builds n tenants cycling through the first `families`
// acyclic families at the given scale.
func acyclicTenants(prefix string, n, rows, families int) ([]*tenant, error) {
	out := make([]*tenant, 0, n)
	for i := 0; i < n; i++ {
		t := &tenant{name: prefix + strconv.Itoa(i), db: relation.NewDatabase(), wantRows: rows + 1}
		family := i % families
		rels, answer := acyclicFamily(family, t.name, rows)
		for k, spec := range rels {
			r, err := spec.relation()
			if err != nil {
				return nil, err
			}
			t.db.Put(spec.name, r)
			t.inputRows += r.Len()
			if k > 0 {
				t.query += " * "
			}
			t.query += spec.name
		}
		t.leg = &legSpec{family: family, rows: rows, prefix: t.name}
		want, err := answer.relation()
		if err != nil {
			return nil, err
		}
		t.want = digestRelation(want)
		out = append(out, t)
	}
	return out, nil
}

// addBystanders gives the tenant n relations that no query names.
func addBystanders(t *tenant, n, rows int) {
	for k := 0; k < n; k++ {
		spec := relSpec{
			name:  "BY" + strconv.Itoa(k),
			attrs: []string{"P" + strconv.Itoa(k), "Q" + strconv.Itoa(k)},
		}
		for i := 0; i < rows; i++ {
			spec.rows = append(spec.rows, []string{
				t.name + ".p" + strconv.Itoa(k) + "_" + strconv.Itoa(i),
				t.name + ".q" + strconv.Itoa(i%7),
			})
		}
		r, err := spec.relation()
		if err != nil {
			panic(err) // generated names are distinct: only a bug gets here
		}
		t.db.Put(spec.name, r)
	}
}
