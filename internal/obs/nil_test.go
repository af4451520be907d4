package obs_test

import (
	"io"
	"reflect"
	"testing"

	"relquery/internal/obs"
)

// callAllOnNil invokes every exported method of the typed-nil pointer v
// with zero-value arguments (io.Writer arguments get io.Discard so a
// nil-interface write cannot mask a receiver bug) and fails on any
// panic. This is the nil-receiver no-op contract's runtime face: the
// nilrecv analyzer proves the guard exists, this proves the behavior —
// and keeps proving it for methods added later, since reflection
// enumerates the method set fresh on every run.
func callAllOnNil(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	for i := 0; i < rt.NumMethod(); i++ {
		name := rt.Method(i).Name
		m := rv.Method(i)
		mt := m.Type()
		var args []reflect.Value
		n := mt.NumIn()
		if mt.IsVariadic() {
			n--
		}
		for j := 0; j < n; j++ {
			in := mt.In(j)
			if in == writer {
				args = append(args, reflect.ValueOf(io.Discard))
			} else {
				args = append(args, reflect.Zero(in))
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(%s).%s panicked on nil receiver: %v", rt, name, r)
				}
			}()
			m.Call(args)
		}()
	}
}

func TestNilReceiversNoOp(t *testing.T) {
	callAllOnNil(t, (*obs.Collector)(nil))
	callAllOnNil(t, (*obs.Metrics)(nil))
	callAllOnNil(t, (*obs.Registry)(nil))
	callAllOnNil(t, (*obs.Span)(nil))
	callAllOnNil(t, (*obs.Trace)(nil))
}

// TestNilCollectorChain exercises the idiomatic call chain the engine
// runs with tracing off: every link must absorb the nil.
func TestNilCollectorChain(t *testing.T) {
	var c *obs.Collector
	sp := c.Start("join", "R ⋈ S")
	if sp != nil {
		t.Fatalf("nil collector Start = %v, want nil span", sp)
	}
	child := sp.Child("select", "σ")
	if child != nil {
		t.Fatalf("nil span Child = %v, want nil", child)
	}
	sp.Begin()
	sp.SetAlgorithm("hash")
	sp.ObservePeak(100)
	sp.Finish(10)
	if got := sp.Wall(); got != 0 {
		t.Errorf("nil span Wall = %v, want 0", got)
	}
	if m := c.M(); m != nil {
		t.Errorf("nil collector M = %v, want nil", m)
	}
	if tr := c.Trace(); tr != nil {
		t.Errorf("nil collector Trace = %v, want nil", tr)
	}

	var m *obs.Metrics
	m.ObserveJoin(5)
	m.Violation("deadline")
	if snap := m.Snapshot(); snap.Joins != 0 {
		t.Errorf("nil metrics Snapshot.Joins = %d, want 0", snap.Joins)
	}

	var r *obs.Registry
	r.Observe(nil, 0)
	if snap := r.Snapshot(); snap.Evals != 0 {
		t.Errorf("nil registry Snapshot.Evals = %d, want 0", snap.Evals)
	}
}
