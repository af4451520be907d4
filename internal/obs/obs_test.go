package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// TestNilSafety exercises every method on nil receivers: the zero-overhead
// contract says instrumented code may call them unconditionally.
func TestNilSafety(t *testing.T) {
	var c *Collector
	if sp := c.Start(OpJoin, "x"); sp != nil {
		t.Fatalf("nil Collector.Start = %v, want nil", sp)
	}
	if m := c.M(); m != nil {
		t.Fatalf("nil Collector.M = %v, want nil", m)
	}
	if tr := c.Trace(); tr != nil {
		t.Fatalf("nil Collector.Trace = %v, want nil", tr)
	}

	var m *Metrics
	m.ObserveJoin(3)
	m.ObserveIntermediate(5)
	m.JoinWork(1, 2, 3)
	m.WCOJ(3, 4)
	m.Semijoin(5)
	m.Yannakakis()
	m.CacheHit()
	m.CacheMiss()
	m.CacheInvalidated(2)
	m.Degraded()
	m.Violation(ViolationDeadline)
	m.Violation("not-a-kind")
	if snap := m.Snapshot(); snap != (MetricsSnapshot{}) {
		t.Fatalf("nil Metrics.Snapshot = %+v, want zero", snap)
	}

	var reg *Registry
	reg.Observe(&Trace{}, time.Second)
	reg.Observe(nil, 0)
	reg.SetTraceCap(4)
	if tr := reg.Traces(); tr != nil {
		t.Fatalf("nil Registry.Traces = %v, want nil", tr)
	}
	if snap := reg.Snapshot(); snap.Evals != 0 || snap.TracesHeld != 0 {
		t.Fatalf("nil Registry.Snapshot = %+v, want zero", snap)
	}

	var sp *Span
	if child := sp.Child(OpScan, "T"); child != nil {
		t.Fatalf("nil Span.Child = %v, want nil", child)
	}
	sp.Begin()
	sp.Finish(7)
	sp.SetSchemeWidth(2)
	sp.SetInputs([]int{1, 2})
	sp.SetAlgorithm("hash")
	sp.SetCache(CacheHit)
	sp.SetAGMBound(64)
	sp.ObservePeak(9)
	sp.SetWCOJ(3, 4)
	sp.SetStructure(StructureAcyclic)
	sp.SetYannakakis(4, 12)
	sp.SetErr(errors.New("boom"))
	if sp.Wall() != 0 {
		t.Fatalf("nil Span.Wall = %v, want 0", sp.Wall())
	}
}

func TestMetricsCounters(t *testing.T) {
	var m Metrics
	m.ObserveJoin(10)
	m.ObserveJoin(40)
	m.ObserveIntermediate(25)
	m.JoinWork(3, 7, 50)
	m.WCOJ(6, 11)
	m.Semijoin(3)
	m.Semijoin(0)
	m.Yannakakis()
	m.CacheHit()
	m.CacheMiss()
	m.CacheMiss()
	m.CacheInvalidated(4)
	m.Violation(ViolationRowBudget)
	m.Violation(ViolationRowBudget)
	m.Violation(ViolationAdmission)
	m.Violation("unknown") // non-sentinel failures are not violations

	got := m.Snapshot()
	want := MetricsSnapshot{
		Joins:               2,
		MaxIntermediate:     40,
		IntermediateTuples:  75,
		TuplesBuilt:         3,
		TuplesProbed:        7,
		TuplesEmitted:       50,
		WCOJJoins:           1,
		WCOJCandidates:      6,
		WCOJIntersections:   11,
		YannakakisJoins:     1,
		Semijoins:           2,
		SemijoinRows:        3,
		ViolationsRowBudget: 2,
		ViolationsAdmission: 1,
		CacheHits:           1,
		CacheMisses:         2,
		CacheInvalidations:  4,
	}
	if got != want {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
}

func TestSpanTreeAndJSON(t *testing.T) {
	c := &Collector{}
	root := c.Start(OpProject, "pi[A C]")
	root.Begin()
	root.SetSchemeWidth(2)
	j := root.Child(OpJoin, "* (natural join, 2 inputs)")
	j.Begin()
	l := j.Child(OpScan, "L")
	r := j.Child(OpScan, "R")
	l.Begin()
	l.Finish(3)
	r.Begin()
	r.Finish(4)
	j.SetInputs([]int{3, 4})
	j.SetAlgorithm("hash")
	j.SetAGMBound(12)
	j.Finish(5)
	root.SetInputs([]int{5})
	root.Finish(2)
	c.M().ObserveJoin(5)

	tr := c.Trace()
	if tr.Root() != root {
		t.Fatalf("Trace.Root = %v, want the started root", tr.Root())
	}
	if got := len(root.Children); got != 1 {
		t.Fatalf("root has %d children, want 1", got)
	}
	if got := root.Children[0].Children; len(got) != 2 || got[0] != l || got[1] != r {
		t.Fatalf("join children = %v, want [L R] in order", got)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded struct {
		Trace []struct {
			Op       string `json:"op"`
			Label    string `json:"label"`
			Children []struct {
				Op        string  `json:"op"`
				Algorithm string  `json:"algorithm"`
				AGMBound  float64 `json:"agm_bound"`
				InputRows []int   `json:"input_rows"`
			} `json:"children"`
		} `json:"trace"`
		Metrics MetricsSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	if len(decoded.Trace) != 1 || decoded.Trace[0].Op != OpProject {
		t.Fatalf("decoded roots = %+v, want one project root", decoded.Trace)
	}
	jd := decoded.Trace[0].Children[0]
	if jd.Op != OpJoin || jd.Algorithm != "hash" || jd.AGMBound != 12 {
		t.Errorf("decoded join span = %+v", jd)
	}
	if len(jd.InputRows) != 2 || jd.InputRows[0] != 3 || jd.InputRows[1] != 4 {
		t.Errorf("decoded InputRows = %v, want [3 4]", jd.InputRows)
	}
	if decoded.Metrics.Joins != 1 {
		t.Errorf("decoded metrics joins = %d, want 1", decoded.Metrics.Joins)
	}
}

func TestSpanErrAndCache(t *testing.T) {
	sp := &Span{Op: OpJoin, Label: "*"}
	sp.SetErr(nil)
	if sp.Err != "" {
		t.Errorf("SetErr(nil) set Err = %q", sp.Err)
	}
	sp.SetErr(errors.New("budget exceeded"))
	if sp.Err != "budget exceeded" {
		t.Errorf("Err = %q", sp.Err)
	}
	sp.SetCache(CacheMiss)
	if sp.Cache != CacheMiss {
		t.Errorf("Cache = %q", sp.Cache)
	}
}
