# Development targets. `make verify` is the pre-commit gate: formatting,
# vet, build, the full test suite under the race detector, a
# single-iteration benchmark smoke run so the perf harness can't rot, a
# few seconds of fuzzing the scenario decoder, the cluster solver, the
# data-division matcher, the replay-alone oracle, LP-HTA against its
# guarantees and the exact optimum, and the mecd HTTP handlers, the
# meclint static-analysis suite
# (which includes the docs and links checks — see docs/LINTING.md),
# staticcheck when fetchable, a mecstat smoke over its
# committed fixtures, a mecd service smoke that boots the daemon on a
# loopback port and drives one arrival/assign/departure cycle through
# the live HTTP API, and the e2ebench module's own tests.

GO ?= go

# Pinned so CI and local runs agree; bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: verify build test vet fmt-check race bench bench-go bench-smoke bench-obs fuzz-smoke lint staticcheck mecstat-smoke mecd-smoke workload-checks e2e-test

verify: fmt-check vet build race bench-smoke fuzz-smoke lint staticcheck mecstat-smoke mecd-smoke workload-checks e2e-test

# The full go vet analyzer set, spelled out so the suite only changes
# when this list does — a toolchain upgrade cannot silently drop a check.
VET_ANALYZERS = appends asmdecl assign atomic bools buildtag cgocall \
	composites copylocks defers directive errorsas framepointer \
	httpresponse ifaceassert loopclosure lostcancel nilfunc printf shift \
	sigchanyzer slog stdmethods stdversion stringintconv structtag \
	testinggoroutine tests timeformat unmarshal unreachable unsafeptr \
	unusedresult

vet:
	$(GO) vet $(foreach a,$(VET_ANALYZERS),-$(a)) ./...

# The repo's own analyzers (determinism, nilsafe, floatcmp, exitcode)
# plus the docs and links repo checks. See docs/LINTING.md.
lint:
	$(GO) run ./cmd/meclint

# Pinned staticcheck via `go run`, so nothing is installed globally.
# Skips with a notice when the module cannot be fetched (offline
# sandboxes). CI sets STRICT=1, which turns an unfetchable staticcheck
# into a hard failure instead of a silent skip.
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	elif [ -n "$(STRICT)" ]; then \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable and STRICT is set"; exit 1; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable (offline?); skipping"; fi

# Fail when any file is not gofmt-clean; print the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Record the performance baseline into BENCH_lphta.json (see
# docs/PERFORMANCE.md). bench-go runs the raw testing.B suite instead.
bench:
	$(GO) run ./cmd/mecperf -out BENCH_lphta.json

bench-go:
	$(GO) test -run xxx -bench . -benchmem ./...

# One iteration of every benchmark: catches bitrot without the cost of a
# real measurement run. The second step is the large-scenario gate: a
# 100k-device scenario encoded and decoded under a pinned B/op budget,
# and the sha256 of the repository benchmark's three seed-1 documents
# (see internal/scenarioio/largescale_test.go). The third checks the
# structured cluster solver against the dense-tableau simplex on every
# cluster of the benchmark's generated workloads (internal/core
# p2_test.go).
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...
	MEC_LARGE_SMOKE=1 $(GO) test -run 'TestLargeScenarioMemoryBudget|TestReferenceHashes' ./internal/scenarioio/
	MEC_LARGE_SMOKE=1 $(GO) test -run TestLPHTAStructuredMatchesSimplex ./internal/core/

# A few seconds of native fuzzing per target: the scenario decoder
# against its encoding/json oracle (internal/scenarioio FuzzDecode), the
# structured cluster-relaxation solver against the dense-tableau simplex
# (internal/core FuzzClusterRelaxation), the exact P3 matcher against
# the greedies, the counting bound and exhaustive search (internal/cover
# FuzzOptimalMaxLoad), and one task replayed alone in the discrete-event
# simulator on each placement against the cost model's t_ijl and E_ijl
# (internal/sim FuzzReplayAlone), and LP-HTA on small generated
# scenarios against C1–C5, the Theorem 2 bound and the branch-and-bound
# optimum (internal/core FuzzLPHTA), and one arbitrary request against a
# small mecd, which must never panic or answer 5xx and must list every
# accepted arrival in its next read (cmd/mecd FuzzHandlers). `go test
# -fuzz` runs one target per invocation. A crasher lands in the
# package's testdata/fuzz/<target> directory; commit it as a regression
# case.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime 5s ./internal/scenarioio/
	$(GO) test -run xxx -fuzz FuzzClusterRelaxation -fuzztime 5s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzOptimalMaxLoad -fuzztime 5s ./internal/cover/
	$(GO) test -run xxx -fuzz FuzzReplayAlone -fuzztime 5s ./internal/sim/
	$(GO) test -run xxx -fuzz FuzzLPHTA -fuzztime 5s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzHandlers -fuzztime 5s ./cmd/mecd/

# The repository benchmark is its own module (e2ebench/go.mod), so
# `go test ./...` at the root never reaches it. This runs its tests
# only, under the race detector, not the benchmark runs themselves.
e2e-test:
	cd e2ebench && $(GO) test -race ./...

# Observability overhead check: disabled vs metrics-enabled pipelines.
# Every observability benchmark carries the BenchmarkObs prefix, so the
# filter never needs updating when one is added or renamed.
bench-obs:
	$(GO) test -run xxx -bench BenchmarkObs -benchmem ./...

# The ci-smoke machine class of the workload-checks corpus: every case
# through the full generate → LP-HTA → simulate pipeline, gated on its
# budgets.json. `go run ./cmd/mecwc` (no -class) runs every class.
workload-checks:
	$(GO) run ./cmd/mecwc -class ci-smoke

# mecstat must keep reading its own committed fixtures and gating clean
# on an identical pair; a regressed pair must trip the gate.
mecstat-smoke:
	$(GO) run ./cmd/mecstat -threshold 0.1 cmd/mecstat/testdata/base.json cmd/mecstat/testdata/base.json > /dev/null
	@if $(GO) run ./cmd/mecstat -threshold 0.2 cmd/mecstat/testdata/base.json cmd/mecstat/testdata/regressed.json > /dev/null 2>&1; then \
		echo "mecstat failed to flag the regressed fixture"; exit 1; fi

# The online assignment service must boot, accept an arrival over HTTP,
# assign it, survive its departure, and expose its counters on /metrics
# (see docs/SERVICE.md). -selfcheck picks a random loopback port.
mecd-smoke:
	$(GO) run ./cmd/mecd -selfcheck -preload 25 -log-level off > /dev/null
