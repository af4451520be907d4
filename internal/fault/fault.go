// Package fault is a deterministic fault-injection harness for the query
// engine: named injection points compiled into the engines' failure-prone
// paths, and seed-keyed scripts that make the k-th crossing of a point
// sleep, panic, or cancel an evaluation's context.
//
// The package exists so every failure path the resource governor
// (internal/governor) promises to handle — cancel mid-join, panic inside
// a strategy, an operator that suddenly goes slow — is exercised by
// tests rather than hoped-for. Production code never registers an
// injector; tests register a Script, run the engine, and assert the
// typed error that must result.
//
// # Zero-overhead contract
//
// Mirroring internal/obs: with no injector registered, every Hit call is
// a single atomic bool load and branch — no map lookups, no locks, no
// allocation (see BenchmarkHitDisabled and BENCH_fault.txt). The
// injection sites therefore stay compiled into release binaries, where
// they cost nothing, instead of living behind build tags that would let
// the tested and the shipped code drift.
//
// Registration is process-global and test-only by design: Set installs
// an injector and returns a restore func, and tests that inject faults
// must not run in parallel with each other (they share the registry).
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site compiled into the engine.
type Point string

// The engine's injection sites. Each is crossed at the granularity named
// in its comment; scripts key rules to (Point, occurrence count).
const (
	// JoinStart is crossed once per join invocation (binary or n-ary),
	// before any work.
	JoinStart Point = "join.start"
	// JoinBatch is crossed once per tuple batch inside the sequential
	// hash join's probe loop.
	JoinBatch Point = "join.batch"
	// WCOJSearch is crossed once per attribute-intersection pass of the
	// worst-case-optimal generic join.
	WCOJSearch Point = "wcoj.search"
	// Semijoin is crossed once per semijoin pass of Yannakakis' sweeps.
	Semijoin Point = "semijoin.pass"
	// EvalNode is crossed once per algebra operator evaluation.
	EvalNode Point = "algebra.node"
)

// Points lists every injection site, for matrix tests.
func Points() []Point {
	return []Point{JoinStart, JoinBatch, WCOJSearch, Semijoin, EvalNode}
}

// Injector reacts to the engine crossing an injection point. Fire runs
// on the engine goroutine that crossed the site: it may sleep (slow
// operator), panic (crash in strategy), or cancel a context it closes
// over (cancel mid-join). It must be safe for concurrent use — relqueryd's
// concurrent requests cross sites concurrently.
type Injector interface {
	Fire(p Point)
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	current Injector
	// firings counts crossings delivered to an injector, per point
	// (Point -> *atomic.Int64). Process-global and monotonic, like the
	// registry itself; the telemetry exporter reads it so chaos runs show
	// where faults actually landed. Only the slow path touches it — with
	// no injector registered the counters stay frozen at zero cost.
	firings sync.Map
)

// Hit marks the engine crossing point p. With no injector registered it
// reduces to one atomic load; with one registered it forwards to the
// injector's Fire.
func Hit(p Point) {
	if !enabled.Load() {
		return
	}
	fire(p)
}

// fire is kept out of Hit so the fast path stays inlinable.
func fire(p Point) {
	mu.Lock()
	inj := current
	mu.Unlock()
	if inj != nil {
		v, _ := firings.LoadOrStore(p, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
		inj.Fire(p)
	}
}

// Firings snapshots the process-wide count of injection-point crossings
// delivered to an injector, per point. Points never crossed under an
// injector are absent. The counters are monotonic for the process
// lifetime — consumers needing a window take deltas.
func Firings() map[Point]int64 {
	out := map[Point]int64{}
	firings.Range(func(k, v any) bool {
		out[k.(Point)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// Set installs inj as the process-wide injector and returns a func
// restoring the previous state. Passing nil disables injection. Tests
// must defer the restore and must not run fault-injecting tests in
// parallel.
func Set(inj Injector) (restore func()) {
	mu.Lock()
	prev := current
	current = inj
	enabled.Store(inj != nil)
	mu.Unlock()
	return func() {
		mu.Lock()
		current = prev
		enabled.Store(prev != nil)
		mu.Unlock()
	}
}

// Enabled reports whether an injector is registered (for tests that must
// skip when another harness is active).
func Enabled() bool { return enabled.Load() }

// Action is what a script rule does when it matches.
type Action int

const (
	// Sleep delays the crossing goroutine by the rule's Delay — the
	// "slow operator" fault.
	Sleep Action = iota
	// Panic panics with a *InjectedPanic — the "crash in strategy"
	// fault; the evaluator's recovery path must turn it into an error.
	Panic
	// Call invokes the rule's Func — the hook for "cancel mid-join"
	// (the func closes over a context.CancelFunc) and any custom fault.
	Call
)

// InjectedPanic is the payload of a Panic rule, so recovery paths can
// tell an injected crash from a genuine engine bug in test assertions.
// It implements error: recovery paths that wrap the panic value with %w
// keep it reachable through errors.As.
type InjectedPanic struct {
	Point Point
	N     int64
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (crossing %d)", p.Point, p.N)
}

// Error implements error.
func (p *InjectedPanic) Error() string { return p.String() }

// Rule makes the Nth crossing of Point perform Action (1-based; every
// crossing from the Nth on matches when Every is set).
type Rule struct {
	Point Point
	// N is the 1-based crossing count that triggers the rule. Zero
	// means the first crossing.
	N int64
	// Every, when true, fires on the Nth and every later crossing
	// (used for persistent slowdowns).
	Every bool
	// Act selects the fault.
	Act Action
	// Delay is the Sleep duration.
	Delay time.Duration
	// Func is the Call target.
	Func func()
}

// Script is a deterministic Injector: per-point atomic crossing counters
// matched against rules, so the same engine run under the same script
// fires the same faults regardless of goroutine interleaving within a
// point (counters are per-point and each crossing gets a unique count).
type Script struct {
	rules  []Rule
	counts sync.Map // Point -> *atomic.Int64
}

// NewScript builds a script from rules. Rules with N == 0 fire on the
// first crossing of their point.
func NewScript(rules ...Rule) *Script {
	s := &Script{rules: make([]Rule, len(rules))}
	copy(s.rules, rules)
	for i := range s.rules {
		if s.rules[i].N == 0 {
			s.rules[i].N = 1
		}
	}
	return s
}

// Count reports how many times p has been crossed under this script.
func (s *Script) Count(p Point) int64 {
	if s == nil {
		return 0
	}
	if v, ok := s.counts.Load(p); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// Fire implements Injector. A nil script injects nothing.
func (s *Script) Fire(p Point) {
	if s == nil {
		return
	}
	v, _ := s.counts.LoadOrStore(p, new(atomic.Int64))
	n := v.(*atomic.Int64).Add(1)
	for i := range s.rules {
		r := &s.rules[i]
		if r.Point != p {
			continue
		}
		if n != r.N && !(r.Every && n >= r.N) {
			continue
		}
		switch r.Act {
		case Sleep:
			time.Sleep(r.Delay)
		case Panic:
			panic(&InjectedPanic{Point: p, N: n})
		case Call:
			if r.Func != nil {
				r.Func()
			}
		}
	}
}

var _ Injector = (*Script)(nil)
