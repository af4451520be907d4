package join

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"relquery/internal/obs"
	"relquery/internal/relation"
)

// fuzzAttrs is the attribute pool for fuzzed hypergraphs: up to 6
// attributes, so a hyperedge is a 6-bit mask and the brute-force oracle
// (all labeled trees over ≤5 edges, 5³ = 125 candidates) stays cheap.
var fuzzAttrs = []relation.Attribute{"A", "B", "C", "D", "E", "F"}

// maskEdge decodes a nonzero 6-bit mask into a scheme over fuzzAttrs.
func maskEdge(t *testing.T, mask byte) relation.Scheme {
	t.Helper()
	var attrs []relation.Attribute
	for i, a := range fuzzAttrs {
		if mask&(1<<i) != 0 {
			attrs = append(attrs, a)
		}
	}
	s, err := relation.NewScheme(attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runningIntersection reports whether the tree given by parent pointers
// has the running-intersection property over the hyperedges: for every
// attribute, the tree nodes whose edge contains it induce a connected
// subtree. By the Beeri–Fagin–Maier–Yannakakis theorem a hypergraph has
// such a tree iff it is α-acyclic.
func runningIntersection(edges []relation.Scheme, parent []int) bool {
	n := len(edges)
	adj := make([][]int, n)
	for i, p := range parent {
		if p >= 0 {
			adj[i] = append(adj[i], p)
			adj[p] = append(adj[p], i)
		}
	}
	attrs := map[relation.Attribute][]int{}
	for i, e := range edges {
		for _, a := range e.Attrs() {
			attrs[a] = append(attrs[a], i)
		}
	}
	for _, nodes := range attrs {
		in := make(map[int]bool, len(nodes))
		for _, i := range nodes {
			in[i] = true
		}
		// BFS within the induced subgraph from the first node.
		seen := map[int]bool{nodes[0]: true}
		queue := []int{nodes[0]}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if in[w] && !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		if len(seen) != len(nodes) {
			return false
		}
	}
	return true
}

// pruferTree decodes a Prüfer sequence over n labeled nodes into parent
// pointers rooted at node n-1. Iterating all n^(n-2) sequences iterates
// all labeled trees exactly once (Cayley's formula).
func pruferTree(n int, seq []int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	if n < 2 {
		return parent
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range seq {
		degree[v]++
	}
	type pair struct{ a, b int }
	var links []pair
	for _, v := range seq {
		for u := 0; u < n; u++ {
			if degree[u] == 1 {
				links = append(links, pair{u, v})
				degree[u]--
				degree[v]--
				break
			}
		}
	}
	u, v := -1, -1
	for i := 0; i < n; i++ {
		if degree[i] == 1 {
			if u < 0 {
				u = i
			} else {
				v = i
			}
		}
	}
	links = append(links, pair{u, v})
	// Orient every link toward the root n-1.
	adj := make([][]int, n)
	for _, l := range links {
		adj[l.a] = append(adj[l.a], l.b)
		adj[l.b] = append(adj[l.b], l.a)
	}
	seen := make([]bool, n)
	seen[n-1] = true
	queue := []int{n - 1}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				parent[y] = x
				queue = append(queue, y)
			}
		}
	}
	return parent
}

// acyclicOracle brute-forces α-acyclicity: the hypergraph is acyclic iff
// some labeled tree over its edges has the running-intersection property.
func acyclicOracle(edges []relation.Scheme) bool {
	n := len(edges)
	if n <= 1 {
		return true
	}
	seq := make([]int, n-2)
	for {
		if runningIntersection(edges, pruferTree(n, seq)) {
			return true
		}
		// Increment the sequence in base n.
		i := 0
		for ; i < len(seq); i++ {
			seq[i]++
			if seq[i] < n {
				break
			}
			seq[i] = 0
		}
		if i == len(seq) {
			return false
		}
	}
}

// oracleJoin is the reference answer of a join: the fold of
// relation.Relation.Join, string-keyed, over rels left to right — no
// code of this package on the way.
func oracleJoin(t *testing.T, rels []*relation.Relation) *relation.Relation {
	t.Helper()
	want := rels[0]
	for _, r := range rels[1:] {
		var err error
		if want, err = want.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// FuzzGYO cross-checks the GYO reduction and the joins on random
// hypergraphs: the verdict must agree with the brute-force spanning-tree
// oracle, a returned join tree must itself witness acyclicity, the
// greedy and sequential hash plans and Yannakakis' JoinAll must each
// equal the fold of relation.Relation.Join, the plan JoinAll ran on must
// agree with the standalone planners, and on acyclic inputs the full
// reducer must leave exactly the projections of the join (global
// consistency). One seed in four runs with every tuple hashing to 0, so
// the hash plan's and the tree join's tables group on key comparison
// alone.
func FuzzGYO(f *testing.F) {
	f.Add(byte(0b000011), byte(0b000110), byte(0b001100), byte(0), byte(0), int64(1)) // chain
	f.Add(byte(0b000011), byte(0b000110), byte(0b000101), byte(0), byte(0), int64(2)) // triangle
	f.Add(byte(0b000111), byte(0b001001), byte(0b010010), byte(0b100100), byte(0), int64(3))
	f.Add(byte(0b000011), byte(0b000011), byte(0b000011), byte(0b001100), byte(0b110000), int64(4))
	f.Fuzz(func(t *testing.T, m1, m2, m3, m4, m5 byte, seed int64) {
		var edges []relation.Scheme
		for _, m := range []byte{m1, m2, m3, m4, m5} {
			if m &= 0b111111; m != 0 {
				edges = append(edges, maskEdge(t, m))
			}
		}
		tree, got := JoinTreeOf(edges)
		if want := acyclicOracle(edges); got != want {
			t.Fatalf("GYO says acyclic=%v, oracle says %v for %v", got, want, edges)
		}
		if got && len(edges) > 0 {
			if !runningIntersection(edges, tree.Parent) {
				t.Fatalf("GYO tree %v lacks running intersection for %v", tree.Parent, edges)
			}
		}
		if len(edges) == 0 {
			return
		}

		// Data parity: the hash plans in both orders and Yannakakis (full
		// reducer on acyclic inputs, the greedy hash plan on cyclic ones) must
		// agree with the reference fold.
		if seed&3 == 0 {
			relation.CollideAllHashes(t)
		}
		rng := rand.New(rand.NewSource(seed))
		rels := make([]*relation.Relation, len(edges))
		for i, e := range edges {
			rels[i] = randomRelation(rng, e, 4)
		}
		want := oracleJoin(t, rels)
		for _, order := range []Order{Greedy, Sequential} {
			hashed, err := Multi(Exec{}, NewPlan(rels...), Hash{}, order)
			if err != nil {
				t.Fatal(err)
			}
			if !hashed.Equal(want) {
				t.Fatalf("%v hash plan over %v differs from the fold of Relation.Join: %v vs %v",
					order, edges, hashed.Sorted(), want.Sorted())
			}
		}
		sp := &obs.Span{}
		p := NewPlan(rels...)
		gotRel, err := Yannakakis{}.JoinAll(Exec{Span: sp}, p)
		if err != nil {
			t.Fatal(err)
		}
		checkPlanParity(t, p)
		if !gotRel.Equal(want) {
			t.Fatalf("Yannakakis join over %v differs from the fold of Relation.Join: %v vs %v",
				edges, gotRel.Sorted(), want.Sorted())
		}
		if len(edges) > 1 && (sp.Structure == obs.StructureAcyclic) != got {
			t.Fatalf("JoinAll recorded structure=%q, GYO said acyclic=%v", sp.Structure, got)
		}

		if got {
			// Global consistency: the full reducer leaves each relation
			// equal to the join projected onto its scheme.
			reduced, _, err := FullReduce(rels)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range reduced {
				proj, err := want.Project(edges[i])
				if err != nil {
					t.Fatal(err)
				}
				if !r.Equal(proj) {
					t.Fatalf("reduced[%d] = %v, want projection %v", i, r.Sorted(), proj.Sorted())
				}
				if r.Len() > rels[i].Len() {
					t.Fatalf("full reducer grew relation %d", i)
				}
			}
		} else if _, _, err := FullReduce(rels); err == nil {
			t.Fatal("FullReduce accepted a cyclic hypergraph")
		}
	})
}

// checkOrder holds an answer to its sorted mark: a BornSorted answer's
// insertion order is the order a real sort of its rows finds (a Clone
// carries no mark, so sorting it sorts), and any answer's Sorted() is
// strictly ascending.
func checkOrder(t *testing.T, what string, r *relation.Relation) {
	t.Helper()
	if r.BornSorted() {
		for i, want := range r.Clone().Sorted() {
			if got := r.Tuple(i); !got.Equal(want) {
				t.Fatalf("%s is marked sorted, but row %d of %d is %v, sorted %v", what, i, r.Len(), got, want)
			}
		}
	}
	rows := r.Sorted()
	for i := 1; i < len(rows); i++ {
		if !rows[i-1].Less(rows[i]) {
			t.Fatalf("%s: Sorted() has %v before %v", what, rows[i-1], rows[i])
		}
	}
}

// FuzzAcyclicJoin holds the tree join to the reference oracle on every
// acyclic hypergraph the generator draws, with relations large and skewed
// enough for fat groups, dead groups and whole dead branches — up to 256
// rows, past the relation.SizeSample the root's links are forecast from —
// and trees whose nodes have several children: JoinAll — cold, and again
// over the tables the first run memoized — must equal the fold of
// relation.Relation.Join and come out born sorted, the hash join's answer
// must carry no mark and still sort, the full reducer must leave exactly
// the join's projections, the count pass must have learned the output's
// cardinality — the number of rows then built — from the marks, and the
// search that writes them must stay linear in reduced input plus output.
func FuzzAcyclicJoin(f *testing.F) {
	f.Add(byte(0b000011), byte(0b000110), byte(0b001100), byte(0), byte(0), byte(12), byte(2), int64(1))        // chain, skewed
	f.Add(byte(0b000011), byte(0b000101), byte(0b001001), byte(0b010001), byte(0), byte(20), byte(3), int64(2)) // star
	f.Add(byte(0b000111), byte(0b001001), byte(0b010010), byte(0b100100), byte(0), byte(30), byte(4), int64(3)) // snowflake
	f.Add(byte(0b000011), byte(0b001100), byte(0b110000), byte(0), byte(0), byte(6), byte(7), int64(4))         // cartesian
	f.Add(byte(0b000011), byte(0b000011), byte(0b000110), byte(0b000110), byte(0), byte(40), byte(1), int64(5)) // repeated schemes
	f.Add(byte(0b000111), byte(0b001001), byte(0b011000), byte(0b100010), byte(0), byte(30), byte(3), int64(6)) // two children, one with a child
	// Past relation.SizeSample rows, where the root's links are reserved
	// from a forecast:
	f.Add(byte(0b000111), byte(0b001001), byte(0b010010), byte(0b100100), byte(0), byte(224), byte(5), int64(1))        // a root with three children
	f.Add(byte(0b101000), byte(0b101001), byte(0b100100), byte(0b111100), byte(0b101110), byte(200), byte(3), int64(1)) // an inner node with a leaf and an inner child
	f.Add(byte(0b000011), byte(0b000111), byte(0b111100), byte(0), byte(0), byte(224), byte(7), int64(3))               // leaf groups of 30 rows
	f.Add(byte(0b011111), byte(0b111110), byte(0b000011), byte(0), byte(0), byte(130), byte(7), int64(2))               // every row dangling
	f.Add(byte(0b000111), byte(0b001001), byte(0b010010), byte(0b100100), byte(0), byte(100), byte(7), int64(1462))     // one live root row of 67
	f.Fuzz(func(t *testing.T, m1, m2, m3, m4, m5, maxRows, domain byte, seed int64) {
		var edges []relation.Scheme
		for _, m := range []byte{m1, m2, m3, m4, m5} {
			if m &= 0b111111; m != 0 {
				edges = append(edges, maskEdge(t, m))
			}
		}
		tree, ok := JoinTreeOf(edges)
		if !ok || len(edges) < 2 {
			t.Skip("not an acyclic join")
		}
		if seed&3 == 0 {
			relation.CollideAllHashes(t)
		}
		rng := rand.New(rand.NewSource(seed))
		rels := make([]*relation.Relation, len(edges))
		for i, e := range edges {
			rels[i] = relation.New(e)
			for k, n := 0, rng.Intn(int(maxRows)+1); k < n; k++ {
				row := make(relation.Tuple, e.Len())
				for c := range row {
					row[c] = relation.Value('0' + byte(rng.Intn(int(domain%8)+1)))
				}
				rels[i].MustAdd(row)
			}
		}
		want := oracleJoin(t, rels)
		// Cold, then warm: the second evaluation reads the edge tables the
		// first left on the inputs and the shape it left in the facts.
		p := NewPlan(rels...)
		var got *relation.Relation
		for _, temperature := range []string{"cold", "warm"} {
			var err error
			if got, err = (Yannakakis{}).JoinAll(Exec{}, p); err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s tree join over %v: %v, the oracle has %v", temperature, edges, got.Sorted(), want.Sorted())
			}
			if !got.BornSorted() {
				t.Fatalf("%s tree join over %v: the answer is not marked sorted", temperature, edges)
			}
			checkOrder(t, fmt.Sprintf("%s tree join over %v", temperature, edges), got)
		}
		// Streamed into the codec's block writer, the answer is the bytes
		// WriteRelation writes of the answer built.
		var built, streamed bytes.Buffer
		if err := relation.WriteRelation(&built, "result", got); err != nil {
			t.Fatal(err)
		}
		block := relation.BlockWriter{W: bufio.NewWriter(&streamed), Name: "result"}
		if out, err := (Yannakakis{}).JoinAll(Exec{Out: &block}, p); err != nil || out != nil {
			t.Fatalf("tree join over %v into a sink: returned %v, %v; want no relation", edges, out, err)
		}
		if err := block.End(); err != nil || block.W.Flush() != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), built.Bytes()) {
			t.Fatalf("tree join over %v streamed\n%s\nbuilt\n%s", edges, streamed.Bytes(), built.Bytes())
		}
		// A born-sorted answer as the root of a further tree join: joined
		// with an input it already covers, it comes back whole, in order.
		again, err := (Yannakakis{}).JoinAll(Exec{}, NewPlan(got, rels[0]))
		if err != nil {
			t.Fatal(err)
		}
		if !again.Equal(got) || !again.BornSorted() {
			t.Fatalf("the tree join over %v joined with its first input: %v, marked %v", edges, again.Sorted(), again.BornSorted())
		}
		checkOrder(t, fmt.Sprintf("the tree join over %v joined with its first input", edges), again)
		hashed, err := Multi(Exec{}, NewPlan(rels...), Hash{}, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		if hashed.BornSorted() {
			t.Fatalf("hash join over %v: the answer is marked sorted", edges)
		}
		checkOrder(t, fmt.Sprintf("hash join over %v", edges), hashed)
		reduced, _, err := FullReduce(rels)
		if err != nil {
			t.Fatal(err)
		}
		tj, err := newTreeJoin(new(scratch), Exec{}, rels, tree, newTreeShape(edges, tree))
		if err != nil {
			t.Fatal(err)
		}
		if err := tj.mark(); err != nil {
			t.Fatal(err)
		}
		for i, r := range reduced {
			proj, err := want.Project(edges[i])
			if err != nil {
				t.Fatal(err)
			}
			if !r.Equal(proj) || tj.in[i].rows != proj.Len() {
				t.Fatalf("input %d over %v: reduced to %v (%d rows marked live), the join's projection is %v",
					i, edges, r.Sorted(), tj.in[i].rows, proj.Sorted())
			}
		}
		total, err := tj.count()
		if err != nil || total != got.Len() {
			t.Fatalf("counted %d output rows (%v) over %v, built %d", total, err, edges, got.Len())
		}
		// The search over the reduced inputs meets no dead end: it examines
		// at most arity × (reduced input + output) candidate values.
		if err := tj.search(total, new(relation.Builder)); err != nil {
			t.Fatal(err)
		}
		live := 0
		for _, in := range tj.in {
			live += in.rows
		}
		if bound := got.Scheme().Len() * (live + total); tj.candidates > bound {
			t.Fatalf("the search over %v examined %d candidates; arity × (reduced input + output) is %d", edges, tj.candidates, bound)
		}
	})
}

// TestAcyclicOracleSelfCheck pins the oracle on known shapes so FuzzGYO
// is not testing GYO against a broken referee.
func TestAcyclicOracleSelfCheck(t *testing.T) {
	cases := []struct {
		edges   []string
		acyclic bool
	}{
		{[]string{"A B", "B C", "C D"}, true},
		{[]string{"A B", "B C", "A C"}, false},
		{[]string{"A B", "B C", "A C", "A B C"}, true},
		{[]string{"A B", "B C", "C D", "D A"}, false},
		{[]string{"A B", "C D"}, true},
	}
	for _, tc := range cases {
		edges := schemesOfSpecs(t, tc.edges...)
		if got := acyclicOracle(edges); got != tc.acyclic {
			t.Errorf("oracle(%v) = %v, want %v", tc.edges, got, tc.acyclic)
		}
	}
}
