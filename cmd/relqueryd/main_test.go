package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freePort reserves an ephemeral port and releases it for the server
// under test.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestRunEndToEnd boots the full binary path — flag parsing, tenant
// specs, startup catalog load, HTTP serving — fires the example
// two-tenant admission scenario at it, and shuts it down with SIGINT.
// free's 429 comes first: once a result is cached it is served to any
// tenant without being evaluated, so without being admitted.
func TestRunEndToEnd(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", addr,
			"-tenant", "acme:budget=10k,timeout=30s",
			"-tenant", "free:budget=500",
			"-load", "acme=../../examples/relqueryd/catalog.rel",
			"-load", "free=../../examples/relqueryd/catalog.rel",
		}, os.Stdout)
	}()

	base := "http://" + addr
	var ready bool
	for i := 0; i < 100; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !ready {
		t.Fatal("server never became healthy")
	}

	query := "pi[A D](R1 * R2 * R3)"
	post := func(tenant, params string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/tenants/"+tenant+"/query?"+params, "text/plain", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}
	status, body := post("free", "strategy=hash")
	if status != http.StatusTooManyRequests || !strings.Contains(body, "predicted_peak_rows") {
		t.Errorf("free under hash: status %d body %q, want 429 with predicted_peak_rows", status, body)
	}
	for _, tenant := range []string{"free", "acme"} {
		if status, body := post(tenant, "count=1"); status != http.StatusOK || body != "400" {
			t.Errorf("%s under auto: status %d body %q, want 200 / 400 rows", tenant, status, body)
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"relquery_evals_total", "relqueryd_admission_rejects_total 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down after SIGINT")
	}
}

// TestRunFlagErrors checks bad flags fail before the server binds.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-tenant", ":budget=1"},
		{"-tenant", "x:nope=1"},
		{"-default-budget", "abc"},
		{"-default-timeout", "abc"},
		{"-load", "nope"},
		{"-load", "x=/does/not/exist.rel"},
	} {
		if err := run(args, os.Stdout); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// There is no -parallel: asking for workers is an error, not a no-op.
	if err := run([]string{"-parallel", "2"}, os.Stdout); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-parallel 2: %v, want flag provided but not defined", err)
	}
}

// TestExampleCatalogNumbers checks the example catalog the README's
// admission numbers are quoted on (predicted peak 1600 > free's 500 budget,
// within acme's 10k) is there; internal/server's TestTwoTenantAdmission
// pins the numbers themselves.
func TestExampleCatalogNumbers(t *testing.T) {
	f, err := os.Open("../../examples/relqueryd/catalog.rel")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, _ := io.ReadAll(f)
	for _, rel := range []string{"relation R1", "relation R2", "relation R3"} {
		if !strings.Contains(string(b), rel) {
			t.Fatalf("example catalog missing %q", rel)
		}
	}
	if n := strings.Count(string(b), "\n"); n < 100 {
		t.Errorf("example catalog suspiciously small: %d lines", n)
	}
}
