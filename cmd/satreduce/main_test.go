package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"relquery/internal/cnf"
	"relquery/internal/governor"
	"relquery/internal/qbf"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEmitAndDecide(t *testing.T) {
	if err := run([]string{"-formula", "(x1+x2+x3)(~x2+x3+~x4)(~x3+~x4+~x5)", "-emit"}); err != nil {
		t.Error(err)
	}
	for _, decide := range []string{"sat", "unsat", "count"} {
		err := run([]string{"-formula", "(x1+x2+x3)(~x2+x3+~x4)(~x3+~x4+~x5)", "-decide", decide, "-check"})
		if err != nil {
			t.Errorf("decide %s: %v", decide, err)
		}
	}
}

func TestRunDIMACSFile(t *testing.T) {
	path := writeFile(t, "f.cnf", "p cnf 5 3\n1 2 3 0\n-2 3 -4 0\n-3 -4 -5 0\n")
	if err := run([]string{"-cnf", path, "-decide", "sat", "-check"}); err != nil {
		t.Error(err)
	}
}

func TestRunHumanFile(t *testing.T) {
	path := writeFile(t, "f.txt", "(x1 + x2 + x3)(~x1 + x2 + ~x3)(x1 + ~x2 + x3)\n")
	if err := run([]string{"-cnf", path, "-decide", "count", "-check"}); err != nil {
		t.Error(err)
	}
}

func TestRunShortFormulaIsPadded(t *testing.T) {
	// One clause: normalization pads to three clauses.
	if err := run([]string{"-formula", "(x1 + x2 + x3)", "-decide", "sat", "-check"}); err != nil {
		t.Error(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                         // neither -cnf nor -formula
		{"-formula", "(x1+x2+x3)"}, // nothing to do
		{"-formula", "(x1+x2"},     // parse error
		{"-formula", "(x1+x1+x1)", "-decide", "sat"}, // repeated var stays after padding? converts? -> reduction form error
		{"-cnf", "/does/not/exist", "-emit"},
		{"-formula", "(x1+x2+x3)", "-decide", "bogus"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}

func TestRunForall(t *testing.T) {
	err := run([]string{"-formula", "(x1+x2+x3)(~x1+x2+~x3)(x1+~x2+x3)", "-forall", "1", "-check"})
	if err != nil {
		t.Error(err)
	}
	if err := run([]string{"-formula", "(x1+x2+x3)(~x1+x2+~x3)(x1+~x2+x3)", "-forall", "zero"}); err == nil {
		t.Error("bad -forall accepted")
	}
}

// TestCrossCheckHonorsDeadline runs every -check search under an
// already-expired -timeout context: each must stop with
// governor.ErrDeadline instead of running to completion. PHP(5) keeps
// DPLL and the ∀-loop's first oracle call busy, and the 14-variable
// parity chain (29 variables) the component counter, for
// well over one governor.CheckEvery batch.
func TestCrossCheckHonorsDeadline(t *testing.T) {
	hard, err := cnf.Pigeonhole(5)
	if err != nil {
		t.Fatal(err)
	}
	countable, err := cnf.XorChain(14, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, tc := range []struct {
		mode string
		inst *qbf.Instance
	}{
		{"sat", &qbf.Instance{G: hard}},
		{"unsat", &qbf.Instance{G: hard}},
		{"count", &qbf.Instance{G: countable}},
		{"forall", &qbf.Instance{G: hard, Universal: []int{1}}},
	} {
		if err := crossCheck(ctx, tc.mode, tc.inst, false); !errors.Is(err, governor.ErrDeadline) {
			t.Errorf("%s: want governor.ErrDeadline, got %v", tc.mode, err)
		}
	}
}
