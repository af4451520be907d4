// Command relqueryd serves the relquery engine over HTTP to multiple
// tenants: per-tenant catalogs and resource limits, pre-flight
// admission control against each tenant's intermediate-row budget, a
// shared cross-request subexpression cache, and the process telemetry
// surface (/metrics, /debug/traces, /debug/pprof) on the same port.
//
//	relqueryd -addr :8080 \
//	  -tenant acme:budget=100k,timeout=5s \
//	  -tenant free:budget=2k,timeout=500ms \
//	  -load acme=examples/relqueryd/catalog.rel
//
// Then:
//
//	curl -X POST --data-binary @query.txt localhost:8080/v1/tenants/acme/query
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"relquery/internal/governor"
	"relquery/internal/relation"
	"relquery/internal/server"
)

// repeatable collects every occurrence of a repeatable string flag.
type repeatable []string

func (r *repeatable) String() string     { return strings.Join(*r, ",") }
func (r *repeatable) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("relqueryd: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("relqueryd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "max concurrently executing queries (0 default, <0 unbounded)")
		traceCap   = fs.Int("trace-cap", 0, "trace ring capacity (0 keeps the registry default)")
		defBudget  = fs.String("default-budget", "", "default intermediate-row budget (k/m/g suffixes)")
		defTimeout = fs.String("default-timeout", "", "default per-evaluation deadline (e.g. 2s)")
		defMaxRows = fs.String("default-max-rows", "", "default result-row cap")
		tenants    repeatable
		loads      repeatable
	)
	fs.Var(&tenants, "tenant", "tenant spec name:budget=10k,timeout=2s,max-rows=1m,mem=N (repeatable)")
	fs.Var(&loads, "load", "load a catalog file at startup, tenant=path (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := server.Config{
		MaxConcurrent: *workers,
		TraceCap:      *traceCap,
		Tenants:       make(map[string]governor.Limits),
	}
	var err error
	if *defBudget != "" {
		if cfg.DefaultLimits.MaxIntermediateRows, err = governor.ParseRows(*defBudget); err != nil {
			return fmt.Errorf("-default-budget: %w", err)
		}
	}
	if *defTimeout != "" {
		if cfg.DefaultLimits.Deadline, err = governor.ParseTimeout(*defTimeout); err != nil {
			return fmt.Errorf("-default-timeout: %w", err)
		}
	}
	if *defMaxRows != "" {
		if cfg.DefaultLimits.MaxRows, err = governor.ParseRows(*defMaxRows); err != nil {
			return fmt.Errorf("-default-max-rows: %w", err)
		}
	}
	for _, spec := range tenants {
		name, limits, err := server.ParseTenantSpec(spec)
		if err != nil {
			return err
		}
		cfg.Tenants[name] = limits
	}

	srv := server.New(cfg)
	for _, spec := range loads {
		if err := loadCatalog(srv, spec); err != nil {
			return err
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(out, "relqueryd listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(out, "relqueryd shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loadCatalog parses one -load tenant=path flag and installs the file's
// relations into that tenant's catalog before the server starts.
func loadCatalog(srv *server.Server, spec string) error {
	name, path, ok := strings.Cut(spec, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("-load %q: want tenant=path", spec)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("-load %s: %w", spec, err)
	}
	defer f.Close()
	db, err := relation.ReadDatabase(f)
	if err != nil {
		return fmt.Errorf("-load %s: %w", spec, err)
	}
	srv.Load(name, db)
	log.Printf("loaded %d relations into tenant %q from %s", len(db), name, path)
	return nil
}
