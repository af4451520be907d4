package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload and the replay at tiny sizes, so that a
// change to a signature in internal/server, internal/algebra or
// internal/join that the harness calls fails here and not in a benchmark
// run. It also holds BENCHMARK.json and the program to the same workload
// and metric names, and checks that a second seed, on formulas the first
// did not see, passes the oracle.
func TestSmoke(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}

	out := t.TempDir()
	got, err := measure(workloadNames, options{seed: 1, seconds: 0.1, sizes: tiny, layers: true, out: out})
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the workloads the driver has time for; the
	// program may have more, and all of them are checked here.
	for _, w := range spec.Workloads {
		if got[w.Name] == nil {
			t.Errorf("workload %s of BENCHMARK.json did not run", w.Name)
		}
	}
	for _, name := range workloadNames {
		res := got[name]
		if !res.correct() {
			t.Errorf("%s: %d of %d requests failed: %v", name, res.Failed, res.Attempted, res.Problems)
		}
		// BENCHMARK.json lists the end-to-end metrics of issueBounds per layer.
		if len(res.EndToEnd) != len(spec.EndToEnd)+len(issueBounds) || len(res.PerLayer) != len(spec.PerLayer)-len(issueBounds) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, BENCHMARK.json lists %d and %d",
				name, len(res.EndToEnd), len(res.PerLayer), len(spec.EndToEnd), len(spec.PerLayer))
		}
		for _, m := range spec.EndToEnd {
			if v, ok := res.EndToEnd[m.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", name, m.Name, v.Value)
			}
		}
		for _, m := range spec.PerLayer {
			_, ok := res.PerLayer[m.Name]
			if _, moved := issueBound(m.Name); moved {
				_, ok = res.EndToEnd[m.Name]
			}
			if !ok {
				t.Errorf("%s: per-layer metric %s is missing", name, m.Name)
			}
		}
		data, err := os.ReadFile(filepath.Join(out, "trace."+name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: trace holds %d spans: %v", name, len(spans), err)
		}
	}
	if hit := got["repeat_warm"].PerLayer["server.shared_cache_hit_ratio"].Value; hit < 0.99 {
		t.Errorf("repeat_warm: shared cache hit ratio %v, want at least 0.99", hit)
	}
	for _, name := range []string{"cyclic_auto", "cyclic_greedy", "acyclic_auto", "churn_mixed"} {
		if hit := got[name].PerLayer["server.shared_cache_hit_ratio"].Value; hit > 0.01 {
			t.Errorf("%s: shared cache hit ratio %v, want about 0", name, hit)
		}
	}

	// Pass 0 of every set-up is the one the oracle checks.
	fresh := tiny
	fresh.shapes = 100
	for _, name := range workloadNames {
		r := &runner{}
		err := r.setUp(name, 2, fresh)
		if r.srv != nil {
			r.srv.close()
		}
		if err != nil {
			t.Fatalf("seed 2: %s: %v", name, err)
		}
		if r.failed != 0 {
			t.Errorf("seed 2: %s: %d of %d requests failed: %v", name, r.failed, r.attempted, r.problems)
		}
	}
}

// TestOracleCatchesAWrongAnswer checks that the digest tells a wrong
// answer from a right one, whatever the row and column order.
func TestOracleCatchesAWrongAnswer(t *testing.T) {
	right := "# q\nrelation result\nA B\n1 x\n2 y\nend\n"
	for name, c := range map[string]struct {
		body string
		same bool
	}{
		"rows reordered":    {"relation result\nA B\n2 y\n1 x\nend\n", true},
		"columns reordered": {"relation result\nB A\nx 1\ny 2\nend\n", true},
		"value changed":     {"relation result\nA B\n1 x\n2 z\nend\n", false},
		"row missing":       {"relation result\nA B\n1 x\nend\n", false},
		"values swapped":    {"relation result\nA B\n1 y\n2 x\nend\n", false},
	} {
		want, err := digestBody([]byte(right))
		if err != nil {
			t.Fatal(err)
		}
		got, err := digestBody([]byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if (got == want) != c.same {
			t.Errorf("%s: digests equal = %v, want %v", name, got == want, c.same)
		}
	}
	if _, err := digestBody([]byte("relation result\nA B\n1 x\n")); err == nil {
		t.Error("an answer cut off before \"end\" was accepted")
	}
}

// TestJudge pins -compare's three verdicts, and that a metric which was 0
// cannot get worse unnoticed.
func TestJudge(t *testing.T) {
	lower := boundedMetric{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "throughput_rps", Better: "higher", Bound: 0.10}
	failRatio, _ := issueBound("fail_ratio")
	retained, _ := issueBound("retained_kb_per_request")
	steady := func(v float64) metric { return metric{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	for name, c := range map[string]struct {
		a, b metric
		m    boundedMetric
		want string
	}{
		"within the bound":     {steady(100), steady(108), lower, "ok"},
		"better":               {steady(100), steady(50), lower, "ok"},
		"worse, lower better":  {steady(100), steady(112), lower, "regressed"},
		"worse, higher better": {steady(100), steady(88), higher, "regressed"},
		"more, higher better":  {steady(100), steady(130), higher, "ok"},
		"noisy base":           {metric{Value: 100, Q1: 90, Q3: 110}, steady(130), lower, "unresolved"},
		"noisy change":         {steady(100), metric{Value: 130, Q1: 100, Q3: 150}, lower, "unresolved"},
		"still no failures":    {metric{}, metric{}, failRatio, "ok"},
		"first failure":        {metric{}, metric{Value: 0.001}, failRatio, "regressed"},
		"retained about 0":     {metric{Value: -0.01, Q1: -0.3, Q3: 0.2}, metric{Value: 0.02, Q1: -0.1, Q3: 0.1}, retained, "unresolved"},
	} {
		if _, got := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", name, got, c.want)
		}
	}
}
