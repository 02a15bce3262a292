# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# commands.

GO ?= go

.PHONY: all build test race bench-smoke benchmark-smoke bench-pairs cover fuzz-smoke fmt vet lint lint-phttp check chaos slo multife lines

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The -race acceptance surface: the interner and the request parser that
# interns from parallel connection handlers, the concurrent mapping table,
# the concurrent dispatch engine, the prototype cluster that drives it from
# parallel client handlers, the parallel grid runner sharing one trace,
# the block-parallel trace generator, the scenario layer that compiles
# and drives all of them, and the membership table feeding failure
# detection into all three.
race:
	$(GO) test -race ./internal/core/... ./internal/httpmsg/... ./internal/cache/... ./internal/dispatch/... ./internal/cluster/... ./internal/sim/... ./internal/trace/... ./internal/scenario/... ./internal/membership/... ./internal/dstate/...

# Scale-out front-end tier acceptance (DESIGN.md §17): the dstate store
# conformance suite over all three backends, the tier-member and
# owner-ring unit tests, the peer tier's sockets, the networked
# three-front-end prototype cluster end to end — sharded and replicated —
# and the simulator's tier runs, all under -race.
multife:
	$(GO) test -race -count=1 ./internal/dstate/... ./internal/policy/ -run 'Store|Tier|Mode|OwnerRing'
	$(GO) test -race -count=1 -run 'TestMultiFE|TestPeerTier' ./internal/cluster/
	$(GO) test -race -count=1 -run 'Tier' ./internal/sim/

# Churn acceptance (DESIGN.md §14): membership state-machine properties,
# the engine's up/down/drain view, the simulator's deterministic churn
# events (including the worker-count bit-identity golden), the scenario
# churn schema, and the prototype crash/drain/503/partial-start
# end-to-end tests — all under -race, since churn is exactly where the
# concurrent paths cross.
chaos:
	$(GO) test -race -count=1 ./internal/membership/...
	$(GO) test -race -count=1 -run 'Membership|Churn|Crash|Drain|NoUpBackends|StartTolerates|StartFails' ./internal/dispatch/... ./internal/policy/... ./internal/sim/... ./internal/scenario/... ./internal/cluster/...

# One-iteration pass over every benchmark so the harnesses cannot rot; CI
# runs this on each push.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Total statement coverage against the recorded baseline
# (.github/coverage-baseline.txt); CI fails when it drops.
cover:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=./internal/... ./...
	$(GO) tool cover -func=cover.out | tail -1

# Short coverage-guided runs of the fuzz targets: every parser that faces
# a socket — the httpmsg request/response parsers and the one codec of
# every line between nodes (control, relay, lateral fetch, peer tier) —
# and the simulator's event order against its reference heap; CI runs the
# same on each push.
# Longer local sessions: go test -fuzz <target> -fuzztime 5m <package>
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzReadRequest$$' -fuzztime=10s ./internal/httpmsg/
	$(GO) test -run '^$$' -fuzz 'FuzzReadRequestInterned$$' -fuzztime=10s ./internal/httpmsg/
	$(GO) test -run '^$$' -fuzz 'FuzzReadResponse$$' -fuzztime=10s ./internal/httpmsg/
	$(GO) test -run '^$$' -fuzz 'FuzzParseCtrl$$' -fuzztime=10s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz 'FuzzEngineOrder$$' -fuzztime=10s ./internal/simcore/

# The benchmark (BENCHMARK.json, benchmark/) is a module of its own,
# outside `go test ./...`: compile and vet it against this tree, run its
# tests, and run every workload once at a tenth of its size with all
# correctness checks on. CI runs the same on each push.
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh --smoke

# Alternating pairs of the benchmark, BASE against this checkout (see
# scripts/bench-pairs.sh): one row per workload and end-to-end metric
# appended to OUT (BENCH_e2e.json). BASE=HEAD on a clean checkout is an A/A
# run. CLAIM=<workload>:<metric> marks the claimed row.
BASE ?= HEAD
PAIRS ?= 6
SECONDS ?= 5
SEED0 ?= 0
bench-pairs:
	bash scripts/bench-pairs.sh --base '$(BASE)' --pairs '$(PAIRS)' --seconds '$(SECONDS)' --seed0 '$(SEED0)' \
		--workloads '$(WORKLOADS)' --claim '$(CLAIM)' --note '$(subst ','\'',$(NOTE))' --out '$(OUT)'

# Tail-latency acceptance: the SLO-gated builtin scenarios, each of which
# exits non-zero when its p99 target or violation budget is broken.
# Virtual-time latencies are bit-deterministic per (workload, config), so
# the gates are machine-independent. The per-combo p99 regression gate is
# TestLatencyGate in internal/sim, part of `go test ./...`.
slo:
	$(GO) run ./cmd/phttp-sim -scenario slo-tail > /dev/null
	$(GO) run ./cmd/phttp-sim -scenario churn-crash > /dev/null

# Go line counts by ROADMAP's counting rule: .go files outside benchmark/
# (its own module) and the git-ignored .bench_build/, split into non-test
# lines (no _test.go, nothing under testdata/) and _test.go lines.
lines:
	@find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' \
		-not -path '*/testdata/*' -not -name '*_test.go' -print0 | \
		xargs -0 cat | wc -l | awk '{print "non-test", $$1}'
	@find . -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' \
		-not -path '*/testdata/*' -print0 | \
		xargs -0 cat | wc -l | awk '{print "test", $$1}'

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# The repo's own invariant analyzers (DESIGN.md §16): determinism,
# zero-alloc hot paths, typed atomics only. One process loads every
# package; each analyzer decides each package alone.
lint-phttp:
	$(GO) run ./cmd/phttp-lint ./...

# Static scrutiny for the pointer-heavy unsafe code (and everything
# else): gofmt, go vet and phttp-lint always fail the target;
# golangci-lint (pinned config in .golangci.yml) runs too when installed
# (CI installs it; the dev container may not have it).
lint: lint-phttp
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; gofmt+vet+phttp-lint only"; \
	fi

check: fmt vet lint-phttp build test race
