GO ?= go

.PHONY: all build test check race bench bench-smoke bench-json sweep-bench golden clean lint vet-lint lint-concurrency vet-conc codecert verify-fabric chaos-smoke serve-smoke livefabric

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the simlint multichecker (internal/analyzers) over the whole
# tree: the static half of the determinism contract. See README.md
# "Determinism contract" for the analyzers and the suppression directive.
lint:
	$(GO) build -o bin/simlint ./cmd/simlint
	bin/simlint ./...

# vet-lint runs the same suite through `go vet`'s unit-checker protocol —
# same findings, but batched per package by the go command (and applied to
# test files' packages too; the analyzers themselves skip _test.go files).
vet-lint:
	$(GO) build -o bin/simlint ./cmd/simlint
	$(GO) vet -vettool=$(abspath bin/simlint) ./...

# lint-concurrency runs only the deadlock/leak analyzers (blockcheck,
# chanclose, chanwait, goleak, lockorder) over internal/... — the
# acyclicity argument the simulator makes about fabrics, turned on our
# own code. See README.md "Code deadlock certificate v2".
lint-concurrency:
	$(GO) build -o bin/simlint ./cmd/simlint
	bin/simlint -enable blockcheck,chanclose,chanwait,goleak,lockorder ./internal/...

# vet-conc runs the stock go vet concurrency passes the simlint suite
# does not duplicate: copied locks, misused sync/atomic, and (pre-1.22
# semantics) loop-variable capture in goroutines.
vet-conc:
	$(GO) vet -copylocks -atomic -loopclosure ./...

# codecert regenerates the concurrency code certificate and byte-compares
# it against the committed golden; a concurrency change that alters the
# proof must re-commit the golden deliberately
# (go test ./internal/analysis/codecert -update).
codecert:
	$(GO) build -o bin/simlint ./cmd/simlint
	bin/simlint -certify > bin/codecert.json
	cmp bin/codecert.json internal/analysis/codecert/testdata/codecert.golden.json

# verify-fabric runs the whole-fabric static verifier over every built-in
# topology × routing pair: table consistency, CDG acyclicity, all-pairs
# reachability within the analytical hop bound, exact path disables, and
# single-fault survivability for every link and router. See README.md
# "Static fabric verification".
verify-fabric:
	$(GO) run ./cmd/fabricver -all

# check is the CI gate: go vet (plus its named concurrency passes), the
# simlint determinism suite, the concurrency analyzers plus their
# committed code certificate, the whole-fabric verification matrix (whose
# CDG check is the static Dally–Seitz deadlock certificate), the full
# test suite under the race detector (the parallel experiment engine must
# be race-clean), one pass over every benchmark so a broken benchmark
# cannot land silently, a small chaos-recovery campaign, the campaign
# server smoke, and the live-fabric race matrix.
check: lint lint-concurrency vet-conc codecert verify-fabric
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) bench-smoke
	$(MAKE) chaos-smoke
	$(MAKE) serve-smoke
	$(MAKE) livefabric

# livefabric re-proves the concurrent backend's robustness matrix the way
# CI does: delivered-set equivalence, deadlock-iff-certificate, watchdog
# and leak-freedom tests under the race detector at GOMAXPROCS 1, 2, 4.
livefabric:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/livefabric/... ./internal/testutil/...
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/livefabric/... ./internal/testutil/...
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/livefabric/... ./internal/testutil/...

# chaos-smoke runs a small deterministic fault-recovery campaign on the
# dual fractahedron pair (link kill + link flap + router kill per trial)
# and writes the campaign JSON; equal seeds reproduce it byte for byte at
# any worker count.
chaos-smoke:
	mkdir -p bin
	$(GO) run ./cmd/chaos -trials 2 -packets 200 -flits 3 -seed 2 -json bin/chaos-smoke.json

# serve-smoke exercises the campaign server end to end with real
# processes: run a sweep to completion, run it again elsewhere and
# SIGKILL the server mid-campaign, restart on the same checkpoint/cache
# dirs, and require the resumed artifact byte-identical to the
# uninterrupted one; then prove a repeat submission is fully
# cache-served (computed-points counter flat, cache hits up). Server
# logs and the final /statusz land in bin/serve-smoke for CI to archive.
serve-smoke:
	mkdir -p bin
	$(GO) build -o bin/campaignd ./cmd/campaignd
	$(GO) run ./cmd/servesmoke -bin bin/campaignd -dir bin/serve-smoke

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# bench-smoke runs every benchmark exactly once — a correctness pass (each
# benchmark validates its headline numbers), not a timing pass.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem .

# bench-json regenerates the committed benchmark baseline from a real
# timing run; review the diff like any golden file.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_SIM.json

# sweep-bench times the same sweep grid with 1 and 4 workers; rows are
# bit-identical, only wall clock differs (needs >1 CPU to show a speedup).
sweep-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkSimSweepWorkers' -benchtime 5x .

# golden regenerates the committed experiment fixtures; review the diff.
golden:
	$(GO) test ./internal/experiments -run Golden -update

clean:
	$(GO) clean ./...
