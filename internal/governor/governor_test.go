package governor

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"relquery/internal/obs"
)

func TestNilGovernorNoOps(t *testing.T) {
	var g *Governor
	if err := g.Tick(); err != nil {
		t.Errorf("nil Tick = %v", err)
	}
	if err := g.Check(); err != nil {
		t.Errorf("nil Check = %v", err)
	}
	if err := g.CheckRows(1 << 30); err != nil {
		t.Errorf("nil CheckRows = %v", err)
	}
	if err := g.CheckOutput(1 << 30); err != nil {
		t.Errorf("nil CheckOutput = %v", err)
	}
	if err := g.ChargeBytes(1 << 40); err != nil {
		t.Errorf("nil ChargeBytes = %v", err)
	}
	if err := g.Admit(&prediction{peak: 1e18}); err != nil {
		t.Errorf("nil Admit = %v", err)
	}
}

func TestNewReturnsNilWhenUngoverned(t *testing.T) {
	if g := New(context.Background(), Limits{}); g != nil {
		t.Errorf("New(Background, zero Limits) = %v, want nil (zero-overhead path)", g)
	}
	if g := New(nil, Limits{}); g != nil {
		t.Errorf("New(nil, zero Limits) = %v, want nil", g)
	}
	if g := New(context.Background(), Limits{MaxRows: 1}); g == nil {
		t.Error("New with MaxRows returned nil")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if g := New(ctx, Limits{}); g == nil {
		t.Error("New with cancelable context returned nil")
	}
}

// TestResetStartsClean: a governor reset for a new evaluation keeps
// nothing of the last one — its sticky failure, its ticks and bytes, its
// limits, its deadline, its metrics — and is exactly what New makes; reset
// for an ungoverned evaluation it is nil, as New's is, and a nil governor
// resets into a new one.
func TestResetStartsClean(t *testing.T) {
	var g Governor
	m := &obs.Metrics{}
	used := g.Reset(context.Background(), Limits{Deadline: time.Hour, MaxIntermediateRows: 1, MaxMemoryBytes: 8}).WithMetrics(m)
	used.Tick()
	if err := used.ChargeBytes(64); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("ChargeBytes past the budget = %v", err)
	}
	limits := Limits{MaxRows: 5}
	if got := g.Reset(context.Background(), limits); got != &g {
		t.Fatalf("Reset returned %p, want its receiver %p", got, &g)
	}
	if want := New(context.Background(), limits); g != *want {
		t.Errorf("reset governor %+v, want New's %+v", g, *want)
	}
	if err := g.CheckRows(1 << 20); err != nil {
		t.Errorf("the reset governor kept the old row budget: %v", err)
	}
	if g.Reset(context.Background(), Limits{}) != nil {
		t.Error("Reset for an ungoverned evaluation is not nil")
	}
	var none *Governor
	if got := none.Reset(context.Background(), limits); got == nil || got.Limits() != limits {
		t.Errorf("a nil governor reset to %+v", got)
	}
}

func TestCancelSurfacesErrCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	if err := g.Check(); err != nil {
		t.Fatalf("pre-cancel Check = %v", err)
	}
	cancel()
	err := g.Check()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Check after cancel = %v, want ErrCanceled", err)
	}
	// Sticky: every later checkpoint reports the same violation.
	if err2 := g.Tick(); !errors.Is(err2, ErrCanceled) {
		t.Errorf("Tick after violation = %v, want ErrCanceled", err2)
	}
	if err2 := g.Check(); !errors.Is(err2, ErrCanceled) {
		t.Errorf("Check after violation = %v, want ErrCanceled", err2)
	}
}

func TestDeadlineSurfacesErrDeadline(t *testing.T) {
	g := New(context.Background(), Limits{Deadline: time.Nanosecond})
	time.Sleep(time.Millisecond)
	if err := g.Check(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Check past deadline = %v, want ErrDeadline", err)
	}
}

func TestContextDeadlineSurfacesErrDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	g := New(ctx, Limits{})
	time.Sleep(time.Millisecond)
	if err := g.Check(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Check past ctx deadline = %v, want ErrDeadline", err)
	}
}

func TestTickAmortizesChecks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	cancel()
	// The cancellation must be noticed within one batch of ticks.
	var err error
	for i := 0; i < CheckEvery+1; i++ {
		if err = g.Tick(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancellation not noticed within %d ticks: %v", CheckEvery+1, err)
	}
}

func TestRowBudgets(t *testing.T) {
	g := New(context.Background(), Limits{MaxIntermediateRows: 100, MaxRows: 10})
	if err := g.CheckRows(100); err != nil {
		t.Errorf("CheckRows(100) at budget = %v", err)
	}
	// CheckOutput must not be pre-poisoned: test output first on a fresh
	// governor, then the intermediate overflow.
	if err := g.CheckOutput(11); !errors.Is(err, ErrRowBudget) {
		t.Errorf("CheckOutput(11) = %v, want ErrRowBudget", err)
	}
	g2 := New(context.Background(), Limits{MaxIntermediateRows: 100})
	if err := g2.CheckRows(101); !errors.Is(err, ErrRowBudget) {
		t.Errorf("CheckRows(101) = %v, want ErrRowBudget", err)
	}
}

func TestMemBudget(t *testing.T) {
	g := New(context.Background(), Limits{MaxMemoryBytes: 1000})
	if err := g.ChargeBytes(600); err != nil {
		t.Fatalf("first charge = %v", err)
	}
	if err := g.ChargeBytes(500); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("second charge = %v, want ErrMemBudget", err)
	}
	if err := g.ChargeBytes(1); err == nil || !strings.Contains(err.Error(), "≈1100 bytes") {
		t.Errorf("after the trip: %v, want the sticky violation quoting ≈1100 bytes", err)
	}
}

// prediction is a Prediction of fixed numbers that records what Admit
// asked it for.
type prediction struct {
	peak, bound           float64
	askedPeak, askedBound int
}

func (p *prediction) Peak() float64     { p.askedPeak++; return p.peak }
func (p *prediction) AGMBound() float64 { p.askedBound++; return p.bound }

func TestAdmit(t *testing.T) {
	limits := Limits{MaxIntermediateRows: 100}
	cases := []struct {
		name        string
		peak, bound float64
		reject      bool
	}{
		{name: "under budget: the bound is never asked for", peak: 50, bound: 500},
		{name: "at budget", peak: 100, bound: 80},
		{name: "over budget, bound under", peak: 1000, bound: 80, reject: true},
		{name: "over budget without a bound", peak: 1000, reject: true},
	}
	for _, tc := range cases {
		p := &prediction{peak: tc.peak, bound: tc.bound}
		err := New(context.Background(), limits).Admit(p)
		if p.askedPeak != 1 || (p.askedBound != 0) != tc.reject {
			t.Errorf("%s: asked for the peak %d and the bound %d times, want once and only on a rejection", tc.name, p.askedPeak, p.askedBound)
		}
		if !tc.reject {
			if err != nil {
				t.Errorf("%s: Admit = %v, want admitted", tc.name, err)
			}
			continue
		}
		var ae *AdmissionError
		if !errors.Is(err, ErrAdmission) || !errors.As(err, &ae) {
			t.Errorf("%s: Admit = %v, want an *AdmissionError wrapping ErrAdmission", tc.name, err)
			continue
		}
		if ae.PredictedPeak != tc.peak || ae.AGMBound != tc.bound || ae.Budget != 100 {
			t.Errorf("%s: rejection carries %+v, want peak %v bound %v budget 100", tc.name, *ae, tc.peak, tc.bound)
		}
	}
	// No intermediate-row budget: admitted without asking for anything.
	p := &prediction{peak: 1e18}
	if err := New(context.Background(), Limits{MaxRows: 1}).Admit(p); err != nil || p.askedPeak+p.askedBound != 0 {
		t.Errorf("unbudgeted Admit = %v after %d reads, want nil after none", err, p.askedPeak+p.askedBound)
	}
}

func TestViolationCarriesTraceAndUnwraps(t *testing.T) {
	tr := &obs.Trace{}
	v := &Violation{
		Err:   g0RowErr(),
		Trace: tr,
	}
	if !errors.Is(v, ErrRowBudget) {
		t.Error("Violation does not unwrap to its sentinel")
	}
	if TraceOf(v) != tr {
		t.Error("TraceOf lost the trace")
	}
	if TraceOf(errors.New("plain")) != nil {
		t.Error("TraceOf invented a trace")
	}
	if !Violated(v) {
		t.Error("Violated(v) = false")
	}
	if Violated(errors.New("plain")) {
		t.Error("Violated(plain) = true")
	}
}

func g0RowErr() error {
	g := New(context.Background(), Limits{MaxIntermediateRows: 1})
	return g.CheckRows(2)
}

// TestViolationCounting: each evaluation counts its violation exactly
// once, keyed by the sentinel that tripped, even though the sticky latch
// keeps re-reporting the same error at every later checkpoint.
func TestViolationCounting(t *testing.T) {
	var m obs.Metrics

	// Row-budget trip: repeated checkpoints after the trip must not
	// double-count.
	g := New(context.Background(), Limits{MaxIntermediateRows: 10}).WithMetrics(&m)
	if err := g.CheckRows(11); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("CheckRows = %v, want ErrRowBudget", err)
	}
	_ = g.CheckRows(12)
	_ = g.Tick()
	_ = g.Check()

	// Admission rejection on a second evaluation sharing the metrics.
	g2 := New(context.Background(), Limits{MaxIntermediateRows: 10}).WithMetrics(&m)
	if err := g2.Admit(&prediction{peak: 1e6}); !errors.Is(err, ErrAdmission) {
		t.Fatalf("Admit = %v, want ErrAdmission", err)
	}

	// Cancellation on a third.
	ctx, cancel := context.WithCancel(context.Background())
	g3 := New(ctx, Limits{}).WithMetrics(&m)
	cancel()
	if err := g3.Check(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Check = %v, want ErrCanceled", err)
	}

	snap := m.Snapshot()
	if snap.ViolationsRowBudget != 1 {
		t.Errorf("ViolationsRowBudget = %d, want 1 (sticky latch counts once)", snap.ViolationsRowBudget)
	}
	if snap.ViolationsAdmission != 1 {
		t.Errorf("ViolationsAdmission = %d, want 1", snap.ViolationsAdmission)
	}
	if snap.ViolationsCanceled != 1 {
		t.Errorf("ViolationsCanceled = %d, want 1", snap.ViolationsCanceled)
	}
	if got := snap.ViolationsTotal(); got != 3 {
		t.Errorf("ViolationsTotal = %d, want 3", got)
	}
}

// TestWithMetricsNilSafety: WithMetrics is chainable off nil governors
// (the ungoverned path) and tolerates nil metrics.
func TestWithMetricsNilSafety(t *testing.T) {
	var g *Governor
	if got := g.WithMetrics(&obs.Metrics{}); got != nil {
		t.Errorf("nil Governor.WithMetrics = %v, want nil", got)
	}
	g2 := New(context.Background(), Limits{MaxRows: 1}).WithMetrics(nil)
	if g2 == nil {
		t.Fatal("WithMetrics(nil) lost the governor")
	}
	if err := g2.CheckOutput(2); !errors.Is(err, ErrRowBudget) {
		t.Errorf("CheckOutput = %v, want ErrRowBudget (counting disabled, checks live)", err)
	}
}

// TestWait: Wait returns nil once done closes, and the governor's own
// violation when its deadline or context ends first; a nil governor just
// waits.
func TestWait(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	never := make(chan struct{})

	var ungoverned *Governor
	if err := ungoverned.Wait(closed); err != nil {
		t.Errorf("nil governor: %v", err)
	}
	if err := New(context.Background(), Limits{Deadline: time.Hour}).Wait(closed); err != nil {
		t.Errorf("done already closed: %v", err)
	}
	g := New(context.Background(), Limits{Deadline: 5 * time.Millisecond})
	if err := g.Wait(never); !errors.Is(err, ErrDeadline) {
		t.Errorf("deadline first: %v, want ErrDeadline", err)
	}
	if err := g.Tick(); !errors.Is(err, ErrDeadline) {
		t.Errorf("the violation is not sticky: Tick() = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	if err := New(ctx, Limits{}).Wait(never); !errors.Is(err, ErrCanceled) {
		t.Errorf("cancellation first: %v, want ErrCanceled", err)
	}
}
