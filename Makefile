GO ?= go

.PHONY: build test race bench wcoj-bench acyclic-bench obs-bench bench-diff fault-bench relbench relbench-compare stress trace serve fmt lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: the same smoke run CI performs. For real
# measurements raise -benchtime and pin -cpu.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# Regenerate BENCH_wcoj.txt: the greedy-vs-wcoj comparison on the
# Lemma 1 blow-up families, with the per-configuration peak_rows and
# agm_bound metrics that show the intermediate collapse, and the cold and
# warm planning of one gadget join node. CI uploads the file as an
# artifact.
wcoj-bench:
	{ \
	  echo "Worst-case-optimal generic join vs greedy binary plan (ISSUE 4)"; \
	  echo "================================================================"; \
	  echo; \
	  echo "Regenerate with: make wcoj-bench"; \
	  echo "peak_rows is the largest join cardinality any node materialized"; \
	  echo "(trace MaxIntermediate/OutputRows); agm_bound is the root join"; \
	  echo "node's AGM bound. The wcoj/auto rows must keep peak_rows at or"; \
	  echo "below the final output — never the greedy plan's blow-up."; \
	  echo "PlanFacts is one gadget node's planning (AGM bound and peaks),"; \
	  echo "cold and warm; its B/op is the AGM LP's tableau."; \
	  echo; \
	  $(GO) test -run '^$$' -bench 'WCOJLemma1|GenericJoinDirect' -benchtime 10x -count 1 -benchmem .; \
	  $(GO) test -run '^$$' -bench 'PlanFacts' -benchtime 200x -count 1 -benchmem ./internal/join; \
	} | tee BENCH_wcoj.txt

# Regenerate BENCH_acyclic.txt: the greedy-vs-yannakakis comparison on
# the acyclic blow-up families (path, star, snowflake), with the same
# peak_rows/agm_bound metrics. CI uploads the file as an artifact and
# gates on regressions via cmd/benchdiff.
acyclic-bench:
	{ \
	  echo "Yannakakis full reducer vs greedy binary plan (ISSUE 6)"; \
	  echo "======================================================="; \
	  echo; \
	  echo "Regenerate with: make acyclic-bench"; \
	  echo "peak_rows is the largest join cardinality any node materialized"; \
	  echo "(trace MaxIntermediate/OutputRows); agm_bound is the root join"; \
	  echo "node's AGM bound. The yannakakis/auto rows must keep peak_rows"; \
	  echo "at or below output + largest input — never the greedy blow-up."; \
	  echo; \
	  $(GO) test -run '^$$' -bench 'AcyclicYannakakis|FullReducerDirect|TreeJoinState' -benchtime 10x -count 1 -benchmem .; \
	} | tee BENCH_acyclic.txt

# Regenerate BENCH_obs.txt: the observability layer's cost on the E9
# gadget families — the nil-collector fast path (sequential), the
# per-call subexpression cache (-cache), tracing (-traced), and the
# process-wide telemetry registry publish (-registry, ISSUE 8). The
# zero-overhead contract says the untraced configuration must stay at
# the engine's raw speed; the registry variant bounds the per-evaluation
# cost of feeding /metrics.
obs-bench:
	{ \
	  echo "Observability overhead on the E9 families (ISSUE 3 / ISSUE 8 acceptance)"; \
	  echo "========================================================================"; \
	  echo; \
	  echo "Regenerate with: make obs-bench"; \
	  echo "sequential runs with no Collector (the production fast path);"; \
	  echo "sequential-cache adds a per-call subexpression cache;"; \
	  echo "sequential-traced attaches a fresh obs.Collector per eval;"; \
	  echo "sequential-registry additionally publishes every evaluation"; \
	  echo "into a process-wide obs.Registry (histograms + trace ring),"; \
	  echo "the path behind the telemetry server's /metrics endpoint."; \
	  echo; \
	  echo "RegistryObserveTraceRing is the steady-state cost of publishing"; \
	  echo "one trace into a full ring, which copies it over its oldest slot"; \
	  echo "in the arena that slot reuses: O(1) in the capacity and 0 B, for"; \
	  echo "a one-span tree and for the 18 spans of a phi_G gadget query"; \
	  echo "(spans18*), where a copy that allocated per span would show."; \
	  echo; \
	  $(GO) test -run '^$$' -bench 'E9Eval' -benchtime 10x -count 1 -benchmem .; \
	  $(GO) test -run '^$$' -bench 'RegistryObserveTraceRing' -count 1 -benchmem ./internal/obs/; \
	} | tee BENCH_obs.txt

# Compare freshly-generated bench output against the committed baselines.
# peak_rows gates the join-strategy files at >20% (deterministic row
# counts), and B/op gates them at >10% — the bytes a plan allocates are
# what its intermediates cost, and a representation that copies values
# again shows there first; allocs/op gates the obs/fault overhead files at >2% — a
# count, stable at -count 1, where ns/op on a shared box is noise
# (BENCH_acyclic's snowflake row has auto at 26 µs over the 15 µs
# strategy it delegates to). An allocation on a nil fast path is what
# the zero-overhead contract forbids, and it shows here. This is the
# check the CI bench-regression job runs.
bench-diff:
	cp BENCH_wcoj.txt /tmp/bench_wcoj_base.txt
	cp BENCH_acyclic.txt /tmp/bench_acyclic_base.txt
	cp BENCH_obs.txt /tmp/bench_obs_base.txt
	cp BENCH_fault.txt /tmp/bench_fault_base.txt
	$(MAKE) wcoj-bench acyclic-bench obs-bench fault-bench
	$(GO) run ./cmd/benchdiff -metric peak_rows -max-regress 20 -report agm_bound /tmp/bench_wcoj_base.txt BENCH_wcoj.txt
	$(GO) run ./cmd/benchdiff -metric peak_rows -max-regress 20 -report agm_bound /tmp/bench_acyclic_base.txt BENCH_acyclic.txt
	$(GO) run ./cmd/benchdiff -metric B/op -max-regress 10 /tmp/bench_wcoj_base.txt BENCH_wcoj.txt
	$(GO) run ./cmd/benchdiff -metric B/op -max-regress 10 /tmp/bench_acyclic_base.txt BENCH_acyclic.txt
	$(GO) run ./cmd/benchdiff -metric allocs/op -max-regress 2 /tmp/bench_obs_base.txt BENCH_obs.txt
	$(GO) run ./cmd/benchdiff -metric allocs/op -max-regress 2 /tmp/bench_fault_base.txt BENCH_fault.txt

# relbench (bench/, BENCHMARK.json): the end-to-end relqueryd benchmark,
# all five workloads with their passes interleaved, ~3 min. Leaves
# results.json and trace.<workload>.json in bench/out (git-ignored).
relbench:
	$(GO) run ./bench -seed 1 -out bench/out

# Run relbench at BASE (any git ref, checked out into a temporary
# worktree) and at the working tree, then print the verdict table of
# `bench -compare`. The count metrics (allocs, KB, peak_rows_ratio) are
# deterministic and are what to read; the wall-clock rows need a quiet
# machine. Exits non-zero when a metric regressed beyond its bound.
relbench-compare:
	@test -n "$(BASE)" || { echo "usage: make relbench-compare BASE=<git ref>" >&2; exit 2; }
	rm -rf bench/out/base bench/out/base.src
	git worktree prune
	git worktree add --detach bench/out/base.src $(BASE)
	cd bench/out/base.src && $(GO) run ./bench -seed 1 -out $(CURDIR)/bench/out/base; \
	  status=$$?; cd $(CURDIR) && git worktree remove --force bench/out/base.src; exit $$status
	$(MAKE) relbench
	$(GO) run ./bench -compare bench/out/base/results.json bench/out/results.json > bench/out/verdict.txt; \
	  status=$$?; cat bench/out/verdict.txt; exit $$status

# Fault-injection stress matrix, race-enabled: the governor and fault
# harness suites in full, then every injected failure path — cancel
# mid-join, engine panic, admission rejection, deadline kill — across
# all three join strategies, the three SAT solvers and two model counters
# (satreduce's -check searches too), decide's deciders on the evaluator's
# generic join, and the xorchain2 Lemma 1
# acceptance gadget, plus eight goroutines planning one cold join node
# through shared join.Facts, concurrent first users of one relation's
# access paths (projections, tries, edge tables) publishing each once,
# and the compute-once store (algebra.Memo)
# under concurrent callers, in-process and through relqueryd: identical
# cold requests computing each node once, a waiter leaving at its own
# deadline, a leader's failure staying the leader's, the resident bound,
# and the relqueryd binary end to end, its 429 included. Last, the
# telemetry that crosses goroutines: concurrent requests publishing into
# one obs.Registry while /metrics is scraped (the registry's one lock;
# a collector, its metrics and its spans stay with their evaluation).
# And answers streamed to the wire: parity with the built answer, the
# store-on-second-sight rule, mid-stream failures and concurrent first
# sights.
# CI runs this as its own job; `make stress` reproduces it locally.
stress:
	$(GO) test -race -count=1 ./internal/fault/ ./internal/governor/
	$(GO) test -race -count=1 \
	  -run 'Cancel|Panic|Governor|Admi|JoinNodeReads|PlansOnce|ComputeOnce|ConcurrentFirstUse|Waiter|Bounded|Deadline|XorChain2|SolveContext|Satisfiable|Interrupted|Solvers|RunEndToEnd|Concurrent|Scrape|Stream' \
	  ./internal/algebra/ ./internal/join/ ./internal/relation/ ./internal/sat/ ./internal/decide/ ./internal/server/ ./internal/obs/ ./internal/telemetry/ ./cmd/relqueryd/ ./cmd/satreduce/ .

# Regenerate BENCH_fault.txt: the cost of a compiled-in injection site
# when no script is registered (the production configuration — must be
# indistinguishable from a nil check) and when a script is registered
# but no rule matches the point. Recorded alongside BENCH_obs.txt as
# the ISSUE 7 zero-overhead acceptance artifact.
fault-bench:
	{ \
	  echo "Fault-injection site overhead (ISSUE 7 acceptance check)"; \
	  echo "========================================================"; \
	  echo; \
	  echo "Regenerate with: make fault-bench"; \
	  echo "HitDisabled is the production path: no injector registered,"; \
	  echo "fault.Hit is one atomic load + nil check. HitEnabledNoMatch"; \
	  echo "is a registered script whose rules target a different point."; \
	  echo; \
	  $(GO) test -run '^$$' -bench 'HitDisabled|HitEnabledNoMatch' -count 3 -benchmem ./internal/fault/; \
	} | tee BENCH_fault.txt

# Run relqueryd locally with the example two-tenant configuration:
# both tenants get the example chain join's 400 rows under the default
# strategy; free's budget refuses its greedy binary plan (?strategy=hash)
# with 429 + the predicted-peak numbers. See examples/relqueryd/README.md
# for the curl session.
serve:
	$(GO) run ./cmd/relqueryd -addr :8080 \
	  -tenant acme:budget=10k,timeout=30s \
	  -tenant free:budget=500 \
	  -load acme=examples/relqueryd/catalog.rel \
	  -load free=examples/relqueryd/catalog.rel

# Run the E7 blow-up experiment with tracing on, leaving the JSON
# evaluation trace (span tree + metrics) in trace_e7.json — the same
# artifact the CI trace job uploads.
trace:
	$(GO) run ./cmd/experiments -run E7 -quick -trace trace_e7.json

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# The full static-analysis gate: go vet, staticcheck (when installed —
# CI always installs it; locally the step is skipped with a notice so
# the target works offline), and relquery's own analyzer suite
# (cmd/relquerylint), which fails on any finding.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	$(GO) run ./cmd/relquerylint ./...

# Everything the CI workflow gates on, runnable locally before a push.
ci: build fmt lint test race stress bench
