// Command relquery evaluates a project–join expression against relations
// loaded from a text file.
//
// Usage:
//
//	relquery -db data.rel -query 'pi[A C](pi[A B](T) * pi[B C](T))'
//
// The database file holds "relation <name> ... end" blocks (see package
// relation's codec). The query references relations by name; -join and
// -order select the evaluator's join algorithm and order.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"relquery/internal/algebra"
	"relquery/internal/decide"
	"relquery/internal/governor"
	"relquery/internal/join"
	"relquery/internal/obs"
	"relquery/internal/relation"
	"relquery/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "relquery:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("relquery", flag.ContinueOnError)
	var (
		dbPath    = fs.String("db", "", "path to the relations file (required)")
		query     = fs.String("query", "", "project-join expression, e.g. 'pi[A B](T) * pi[B C](T)'")
		queryFile = fs.String("query-file", "", "read the expression from a file instead")
		algName   = fs.String("join", "hash", "join strategy: "+strings.Join(join.StrategyNames(), ", ")+"; auto routes acyclic n-ary joins to yannakakis, blow-up-prone cyclic ones to wcoj, the rest to the binary default")
		orderName = fs.String("order", "greedy", "join order: greedy or sequential")
		budget    = fs.Int("budget", 0, "abort if any intermediate relation exceeds this many tuples (0 = unlimited)")
		stats     = fs.Bool("stats", false, "print evaluation statistics to stderr")
		countOnly = fs.Bool("count", false, "print only the result cardinality")
		cache     = fs.Bool("cache", false, "memoize repeated subexpressions (keyed by expression text and relation fingerprint)")
		explain   = fs.Bool("explain", false, "print the operator tree with actual cardinalities instead of the result")
		analyze   = fs.Bool("explain-analyze", false, "evaluate once and print the executed operator tree annotated with observed stats and AGM bounds instead of the result")
		tracePath = fs.String("trace", "", "write a JSON evaluation trace (span tree + metrics) to this file, or \"-\" for stdout")
		metrics   = fs.Bool("metrics", false, "print per-evaluation metrics (tuple traffic, cache counters) to stderr")
		pprofPre  = fs.String("pprof", "", "capture profiles around evaluation into <prefix>.cpu.pprof and <prefix>.mem.pprof")
		contains  = fs.String("contains", "", "instead of evaluating, test whether this whitespace-separated tuple (in target-scheme order) is in the result")
		timeout   = fs.String("timeout", "", "wall-clock deadline, as a duration (250ms, 2s, 1m30s) or seconds; empty or 0 = none")
		maxRows   = fs.String("max-rows", "", "abort when the final result exceeds this many rows (optional k/m/g suffix; 0 = unlimited)")
		admit     = fs.Bool("admit", false, "pre-flight admission control: reject a join whose predicted peak intermediate exceeds -budget instead of running it (output-bounded strategies are always admitted)")
		serveAddr = fs.String("serve", "", "serve telemetry over HTTP on this address (host:port) for the duration of the run: /metrics (Prometheus text), /debug/pprof/, /debug/traces (Chrome trace-event JSON)")
		linger    = fs.Duration("serve-linger", 0, "keep the -serve endpoints up this long after evaluation finishes, so the final state can be scraped or loaded in Perfetto")
		traceFmt  = fs.String("trace-format", "json", "format for -trace output: json (span tree + metrics) or chrome (trace-event JSON loadable in Perfetto or chrome://tracing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dbPath == "" {
		return usageError(fs, "-db is required")
	}
	if (*query == "") == (*queryFile == "") {
		return usageError(fs, "exactly one of -query or -query-file is required")
	}
	// Validate engine knobs up front: a bad flag should fail with a usage
	// message before any file is read, not as a late engine error.
	order, err := join.OrderByName(*orderName)
	if err != nil {
		return usageError(fs, "-order: unknown order %q (want greedy or sequential)", *orderName)
	}
	if *traceFmt != "json" && *traceFmt != "chrome" {
		return usageError(fs, "-trace-format: unknown format %q (want json or chrome)", *traceFmt)
	}
	if *linger < 0 {
		return usageError(fs, "-serve-linger must be non-negative, got %v", *linger)
	}
	if *linger > 0 && *serveAddr == "" {
		return usageError(fs, "-serve-linger requires -serve")
	}
	limits, err := governor.ParseLimits(*timeout, *maxRows, 0, 0)
	if err != nil {
		return usageError(fs, "%v", err)
	}
	limits.MaxIntermediateRows = *budget
	// One evaluator, built from the parsed flags, serves -explain and
	// evaluation alike. A collector is attached only when some
	// observability output was requested: a nil collector keeps the engine
	// on its zero-overhead fast path. -serve implies one — the telemetry
	// endpoints are only interesting with metrics and traces behind them.
	var collector *obs.Collector
	if *analyze || *tracePath != "" || *metrics || *stats || *serveAddr != "" {
		collector = &obs.Collector{}
	}
	ev := &algebra.Evaluator{
		Order:     order,
		Cache:     *cache,
		Collector: collector,
		Limits:    limits,
		Admit:     *admit,
	}
	if err := ev.SetStrategy(*algName); err != nil {
		return usageError(fs, "-join: %v", err)
	}
	src := *query
	if *queryFile != "" {
		data, err := os.ReadFile(*queryFile)
		if err != nil {
			return err
		}
		src = strings.TrimSpace(string(data))
	}

	f, err := os.Open(*dbPath)
	if err != nil {
		return err
	}
	defer f.Close()
	db, err := relation.ReadDatabase(f)
	if err != nil {
		return err
	}

	expr, err := algebra.ParseForDatabase(src, db)
	if err != nil {
		return err
	}
	if *explain {
		plan, err := algebra.ExplainWith(ev, expr, db)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}

	if *contains != "" {
		vals := strings.Fields(*contains)
		target := expr.Scheme()
		if len(vals) != target.Len() {
			return fmt.Errorf("-contains: %d values for target scheme %v (arity %d)", len(vals), target, target.Len())
		}
		nt := relation.NamedTuple{Scheme: target, Vals: relation.TupleOf(vals...)}
		// The limits govern the membership search too: it is exponential
		// in the worst case, so it polls per candidate value, and what it
		// materializes counts against -budget and -max-rows.
		ok, err := decide.MemberBudget(nt, expr, db, decide.Budget{Gov: governor.New(context.Background(), limits)})
		if err != nil {
			return err
		}
		fmt.Printf("member(%v in %v): %v\n", nt, expr, ok)
		return nil
	}

	if *serveAddr != "" {
		ev.Registry = obs.NewRegistry()
		srv, err := telemetry.Start(*serveAddr, ev.Registry)
		if err != nil {
			return fmt.Errorf("-serve: %w", err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
		defer srv.Close()
		// Lingering runs before the deferred Close (LIFO), on success
		// and error paths alike — a governor kill is exactly when the
		// endpoints are worth a look.
		defer func() {
			if *linger > 0 {
				fmt.Fprintf(os.Stderr, "telemetry: lingering %s before shutdown\n", *linger)
				time.Sleep(*linger)
			}
		}()
	}
	stopProfiles, err := startProfiles(*pprofPre)
	if err != nil {
		return err
	}
	result, err := ev.Eval(expr, db)
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	// The trace is worth emitting even when evaluation aborts (a
	// budget abort's partial spans show where the blow-up happened).
	if *tracePath != "" {
		if terr := writeTrace(*tracePath, *traceFmt, collector.Trace()); terr != nil && err == nil {
			err = terr
		}
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, collector.Metrics.Snapshot().String())
	}
	if err != nil {
		// A governor kill still has a story to tell: render the spans
		// executed up to the abort, error annotations included, so the
		// user sees where the budget died.
		if *analyze {
			if t := governor.TraceOf(err); t != nil {
				fmt.Print(algebra.RenderTrace(t))
			}
		}
		return err
	}
	if *stats {
		snap := collector.Metrics.Snapshot()
		fmt.Fprintf(os.Stderr, "join=%s order=%s cache=%v joins=%d max_intermediate=%d intermediate_tuples=%d\n",
			ev.AlgorithmName(), order, *cache,
			snap.Joins, snap.MaxIntermediate, snap.IntermediateTuples)
	}
	if *analyze {
		fmt.Print(algebra.RenderTrace(collector.Trace()))
		return nil
	}

	if *countOnly {
		fmt.Println(result.Len())
		return nil
	}
	fmt.Printf("# %s\n# %d tuples over %v\n", expr, result.Len(), result.Scheme())
	fmt.Print(relation.RenderSorted(result))
	return nil
}

// usageError prints the flag set's usage to its output and returns the
// formatted error, so bad flag values fail fast with guidance instead of
// surfacing as late engine errors.
func usageError(fs *flag.FlagSet, format string, args ...any) error {
	fs.Usage()
	return fmt.Errorf(format, args...)
}

// writeTrace writes the trace to path ("-" for stdout) in the requested
// format: the native JSON span tree, or Chrome trace-event JSON.
func writeTrace(path, format string, t *obs.Trace) error {
	write := t.WriteJSON
	if format == "chrome" {
		write = func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, []*obs.Trace{t})
		}
	}
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfiles begins CPU profiling and returns a stop function that
// finishes the CPU profile and captures a heap profile. With an empty
// prefix both are no-ops.
func startProfiles(prefix string) (func() error, error) {
	if prefix == "" {
		return func() error { return nil }, nil
	}
	cf, err := os.Create(prefix + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cf.Close(); err != nil {
			return err
		}
		mf, err := os.Create(prefix + ".mem.pprof")
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile reflects retained memory
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			return err
		}
		return mf.Close()
	}, nil
}
