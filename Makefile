# The lint target is the contract: CI's fast lane runs exactly `make lint`,
# so a clean `make lint` locally means the static-analysis gate passes.
GO ?= go

.PHONY: lint test short race fmt check bench

## lint: go vet + the opera-lint determinism/hot-path analyzers over ./...
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/opera-lint ./...

## test: tier-1 — build everything, run the full test suite
test:
	$(GO) build ./...
	$(GO) test ./...

## short: the fast-lane test pass (skips the slow packet-level suites)
short:
	$(GO) test -short ./...

## race: the race-detector passes CI runs
race:
	$(GO) test -race ./scenario/ ./internal/workload/ ./internal/sweep/ ./internal/telemetry/ ./internal/obs/
	$(GO) test -race -short -run 'Source' .
	$(GO) test -race -run 'Fault|Flap|Lossy' ./internal/sim/ ./scenario/

## bench: engine/transport hot-path benchmarks -> BENCH_engine.json
## (PortEnqueue, EngineSchedule dense/deep/sparse wheel-vs-heap, ClusterAddFlows,
##  SourceSteadyState; every run with -benchmem)
bench:
	$(GO) run ./cmd/opera-bench -out BENCH_engine.json

## fmt: list files needing gofmt (exits nonzero if any)
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## check: everything a PR should pass locally before push
check: fmt lint short
