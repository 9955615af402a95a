# Development targets for the physdes repository.

GO ?= go

.PHONY: all check build test test-race vet lint lint-self fmt fuzz bench bench-atoms bench-warmstart experiments experiments-paper cover clean

all: build vet lint test

# Full pre-commit gate: build, vet, the determinism/concurrency lint
# suite, and the race detector over every package — the worker pool,
# the atom store, the daemon and instrumentation are all concurrent, so
# plain `go test` alone is not a sufficient gate.
check: build vet lint test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Custom go/analysis-style suite — five intraprocedural analyzers
# (norandglobal, nomaprange, nowallclock, lockcheck, tracenames) plus
# four interprocedural ones on the flow call graph (ctxflow, errdrop,
# determtaint, zeroalloc): machine-enforces the seed-reproducibility,
# cancellation, error-handling and zero-alloc invariants behind
# Pr(CS) ≥ α and bit-identical Selections. The suite type-checks
# against GOROOT source and fails fast with an actionable error if the
# toolchain install has no stdlib sources. lint-self turns the suite on
# itself (internal/analysis/...).
lint:
	$(GO) run ./cmd/physdeslint ./...

lint-self:
	$(GO) run ./cmd/physdeslint -self

fmt:
	gofmt -l -w .

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Coverage-guided fuzzing: the SQL parser (seed corpus: TPC-D and CRM
# templates), the CLI workload-file loaders (.jsonl store and plain SQL
# paths — malformed input must error, never panic), the atomic
# decomposition (reassembled costs must match direct costing exactly and
# never lose a structure the winning plan reads), and the drift workload
# generator (arbitrary churn/θ-drift parameters must yield windows a
# warm-started selection accepts — or a clean error, never a panic), and
# template-shaped ingest (a statement and a literal-rewritten sibling
# parsed as one workload must analyse exactly as each does alone).
# FUZZTIME bounds each run; the seeds always run under plain `make test`.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseStatement -fuzztime=$(FUZZTIME) ./internal/sqlparse
	$(GO) test -run='^$$' -fuzz=FuzzLoadWorkloadFile -fuzztime=$(FUZZTIME) ./cmd/physdes
	$(GO) test -run='^$$' -fuzz=FuzzAtomDecompose -fuzztime=$(FUZZTIME) ./internal/optimizer
	$(GO) test -run='^$$' -fuzz=FuzzWorkloadDrift -fuzztime=$(FUZZTIME) ./internal/workload
	$(GO) test -run='^$$' -fuzz=FuzzParseShared -fuzztime=$(FUZZTIME) ./internal/workload

bench:
	$(GO) test -bench=. -benchmem ./...

# Atomic what-if sharing: call reduction on the Table 2 candidate spaces
# (BENCH_atoms.json).
bench-atoms:
	$(GO) run ./cmd/benchrunner -exp atoms -json BENCH_atoms.json

# Warm start: cold vs snapshot-seeded re-selection, unchanged-workload
# rerun and drifting windows (BENCH_warmstart.json).
bench-warmstart:
	$(GO) run ./cmd/benchrunner -exp drift -json BENCH_warmstart.json

# Regenerate every table and figure at quick scale (minutes).
experiments:
	$(GO) run ./cmd/benchrunner

# Paper-scale experiment sizes (hours for the Monte-Carlo figures).
experiments-paper:
	$(GO) run ./cmd/benchrunner -paper

# Total-statement coverage with a regression floor: the floor sits one
# point under the measured baseline, so genuinely new untested code fails
# the gate while normal churn does not. Raise the floor when coverage
# grows; never lower it to make a PR pass.
COVER_FLOOR ?= 81.0
COVER_DIR ?= build
cover:
	@mkdir -p $(COVER_DIR)
	$(GO) test -coverprofile=$(COVER_DIR)/cover.out ./...
	@total=$$($(GO) tool cover -func=$(COVER_DIR)/cover.out | tail -1 | awk '{print $$NF}' | tr -d '%'); \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { \
		if (t+0 < f+0) { printf "total coverage %.1f%% is below the floor %.1f%%\n", t, f; exit 1 } \
		printf "total coverage %.1f%% (floor %.1f%%)\n", t, f }'

clean:
	rm -f cover.out test_output.txt bench_output.txt
	rm -rf build
