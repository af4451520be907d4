package relquery_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"relquery/internal/algebra"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/reduction"
	"relquery/internal/relation"
)

// TestEnginePackagesStartNoGoroutine: an evaluation runs on the goroutine
// that called it. The four engine packages contain no go statement, so a
// row type, an access path or an enumerator written against them has one
// thread of control to reason about; relqueryd's concurrency is across
// requests.
func TestEnginePackagesStartNoGoroutine(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/join", "internal/algebra", "internal/relation", "internal/governor"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			ast.Inspect(file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement in an engine package", fset.Position(g.Pos()))
				}
				return true
			})
		}
		if parsed == 0 {
			t.Errorf("%s: no non-test Go file parsed", dir)
		}
	}
}

var wallField = regexp.MustCompile(obs.FieldWall + `=\S+`)

// TestEvaluatorParallelismIsInert: Evaluator.Parallelism is kept for the
// benchmark contract (bench/replay.go sets it) and read by nothing — on an
// E9 gadget, 8 and the zero value give the same relation, the same rendered
// trace but for wall time, and the same number of allocations to within
// the runtime's own.
func TestEvaluatorParallelismIsInert(t *testing.T) {
	c, err := reduction.New(lemma1Families(t)["xorchain"])
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	db := c.Database()
	run := func(parallelism int) (result, trace string, allocs float64) {
		var out *relation.Relation
		var col *obs.Collector
		// The least of five: a GC cycle starting mid-run allocates a few
		// objects on the runtime's account (more under the race detector),
		// and only ever adds.
		allocs = math.Inf(1)
		for i := 0; i < 5; i++ {
			allocs = min(allocs, testing.AllocsPerRun(1, func() {
				col = &obs.Collector{}
				ev := algebra.Evaluator{Order: join.Greedy, Parallelism: parallelism, Collector: col}
				if out, err = ev.Eval(phi, db); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return relation.RenderSorted(out), wallField.ReplaceAllString(algebra.RenderTrace(col.Trace()), obs.FieldWall+"=-"), allocs
	}
	result, trace, allocs := run(0)
	result8, trace8, allocs8 := run(8)
	if result8 != result {
		t.Error("Parallelism: 8 changed the result")
	}
	if trace8 != trace {
		t.Errorf("Parallelism: 8 changed the rendered trace:\n%s\nwant\n%s", trace8, trace)
	}
	// A worker pool would at least double the count; one percent is the
	// runtime's noise.
	if math.Abs(allocs8-allocs) > allocs/100 {
		t.Errorf("Parallelism: 8 allocates %v times, the zero value %v", allocs8, allocs)
	}
}

// TestConcurrentEvaluators runs one evaluator per goroutine, every strategy
// among them, over one database and one shared subexpression cache — the
// shape relqueryd has: what the goroutines share is the catalog relation's
// lazily memoized fingerprint and sorted view, and the compute-once Memo.
// Run under -race in CI.
func TestConcurrentEvaluators(t *testing.T) {
	c, err := reduction.New(lemma1Families(t)["paper"])
	if err != nil {
		t.Fatal(err)
	}
	phi, err := c.PhiG()
	if err != nil {
		t.Fatal(err)
	}
	db := c.Database()
	expected, err := c.ExpectedPhiResult()
	if err != nil {
		t.Fatal(err)
	}
	wantInput := relation.RenderSorted(c.R.Clone())
	cache := algebra.NewSubexprCache()
	names := join.StrategyNames()
	const evaluators = 8
	errc := make(chan error, evaluators)
	for i := 0; i < evaluators; i++ {
		go func(i int) {
			ev := algebra.Evaluator{Order: join.Greedy, SharedCache: cache}
			if err := ev.SetStrategy(names[i%len(names)]); err != nil {
				errc <- err
				return
			}
			got, err := ev.Eval(phi, db)
			if err != nil {
				errc <- err
				return
			}
			if !got.Equal(expected) {
				errc <- fmt.Errorf("evaluator %d (%s): wrong result", i, names[i%len(names)])
				return
			}
			if relation.RenderSorted(c.R) != wantInput {
				errc <- fmt.Errorf("evaluator %d: the shared relation's sorted view differs", i)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < evaluators; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
