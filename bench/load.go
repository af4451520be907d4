package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"relquery/internal/governor"
	"relquery/internal/server"
	"relquery/internal/telemetry"
)

// tenantLimits governs every tenant, so the governor is never nil and
// server.admit always computes its prediction, while nothing a workload
// sends comes near a limit.
var tenantLimits = governor.Limits{Deadline: 30 * time.Second, MaxRows: 10_000_000, MaxIntermediateRows: 1 << 40}

// liveServer is one relqueryd instance on a loopback port.
type liveServer struct {
	url    string
	http   *http.Server
	served chan error
	client *http.Client
}

// startServer serves a fresh server.Server with the production defaults:
// shared cache on, Parallelism 1, default worker pool.
func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{DefaultLimits: tenantLimits, Parallelism: 1})
	s := &liveServer{
		url:    "http://" + ln.Addr().String(),
		http:   &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{}}, // its own keep-alive connection, closed with the server
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close stops the server and returns once its goroutine has ended.
func (s *liveServer) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		_ = s.http.Close()
	}
	<-s.served
}

// send issues one request and reads the answer into buf. ttfb is the time
// to the response headers, total the time to the last byte.
func (s *liveServer) send(method, path string, body []byte, buf *bytes.Buffer) (resp *http.Response, ttfb, total time.Duration, err error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	resp, err = s.client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	ttfb = time.Since(start)
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	total = time.Since(start)
	resp.Body.Close()
	return resp, ttfb, total, err
}

// expectOK sends a request that must answer 200.
func (s *liveServer) expectOK(method, path string, body []byte) (time.Duration, error) {
	var buf bytes.Buffer
	resp, _, total, err := s.send(method, path, body, &buf)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return total, nil
}

// scrape reads /metrics into series → value.
func (s *liveServer) scrape() (map[string]float64, time.Duration, error) {
	var buf bytes.Buffer
	resp, _, total, err := s.send("GET", "/metrics", nil, &buf)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	m, err := telemetry.ParseMetrics(&buf)
	return m, total, err
}

// passStats is what one pass over a workload's request list measured.
type passStats struct {
	wall              time.Duration
	attempted, failed int
	queries           int       // OK query answers
	uploads           int       // OK uploads (churn_mixed)
	latency           []float64 // ms per query, send to last byte
	ttfb              []float64 // ms per query, send to headers
	upload            []float64 // ms per upload
	outRows, inRows   int       // Σ X-Relquery-Rows, Σ rows of the relations queried
	cpu               time.Duration
	allocBytes        uint64
	allocs            uint64
	retainedBytes     int64
	gcCycles          uint32
	gcPause           time.Duration
	problems          []string
}

func (p *passStats) requests() int { return p.queries + p.uploads }

func (p *passStats) problem(format string, args ...any) {
	p.failed++
	if len(p.problems) < 5 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runPass sends the workload's request list once, closed-loop from one
// client: the next request goes out when the previous answer has been read
// to its last byte. With oracle set (pass 0) every answer is compared
// against the tenant's independent expectation and its size recorded;
// otherwise against what pass 0 saw.
func runPass(s *liveServer, w *workload, oracle bool) (*passStats, error) {
	runtime.GC()
	var before, after, settled runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()

	p := &passStats{}
	var answer, legBody bytes.Buffer
	for _, t := range w.requests {
		if w.churn {
			uploadLeg(s, t, p, &legBody, &answer)
		}
		query(s, w, t, p, &answer, oracle)
	}

	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&settled)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.allocs = after.Mallocs - before.Mallocs
	p.gcCycles = after.NumGC - before.NumGC
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	p.retainedBytes = int64(settled.HeapAlloc) - int64(before.HeapAlloc)
	if w.cold {
		// Every measured request then misses the shared cache, and the heap
		// stays bounded by one pass's results.
		if _, err := s.expectOK("POST", "/v1/cache/reset", nil); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// uploadLeg replaces the tenant's leg with its next regeneration.
func uploadLeg(s *liveServer, t *tenant, part *passStats, body, answer *bytes.Buffer) {
	t.legGen++
	body.Reset()
	t.leg.body(body, t.legGen)
	part.attempted++
	resp, _, total, err := s.send("PUT", "/v1/tenants/"+t.name+"/relations/"+legNames[t.leg.family], body.Bytes(), answer)
	switch {
	case err != nil:
		part.problem("upload %s: %v", t.name, err)
	case resp.StatusCode != http.StatusOK:
		part.problem("upload %s: status %d", t.name, resp.StatusCode)
	default:
		part.uploads++
		part.upload = append(part.upload, ms(total))
	}
}

// query sends the tenant's query and checks the answer.
func query(s *liveServer, w *workload, t *tenant, part *passStats, answer *bytes.Buffer, oracle bool) {
	part.attempted++
	resp, ttfb, total, err := s.send("POST", "/v1/tenants/"+t.name+"/query?strategy="+w.strategy, []byte(t.query), answer)
	if err != nil {
		part.problem("query %s: %v", t.name, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		part.problem("query %s: status %d: %.200s", t.name, resp.StatusCode, answer.Bytes())
		return
	}
	rows, err := strconv.Atoi(resp.Header.Get("X-Relquery-Rows"))
	if err != nil || rows != t.wantRows {
		part.problem("query %s: X-Relquery-Rows %q, want %d", t.name, resp.Header.Get("X-Relquery-Rows"), t.wantRows)
		return
	}
	if oracle {
		got, err := digestBody(answer.Bytes())
		if err != nil {
			part.problem("query %s: %v", t.name, err)
			return
		}
		if got != t.want {
			part.problem("query %s: answer digest %+v, want %+v", t.name, got, t.want)
			return
		}
		t.bodyLen = answer.Len()
	} else if answer.Len() != t.bodyLen {
		part.problem("query %s: answer of %d bytes, pass 0 read %d", t.name, answer.Len(), t.bodyLen)
		return
	}
	part.queries++
	part.latency = append(part.latency, ms(total))
	part.ttfb = append(part.ttfb, ms(ttfb))
	part.outRows += rows
	part.inRows += t.inputRows
}
