GO ?= go

# Staticcheck is pinned so CI results cannot drift as new checks land
# upstream; bump deliberately, together with any burn-down the new
# version requires.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: build test vet toolvet lint examples toolbenchd-smoke remote-smoke chaos fuzz bench-smoke bench-baseline loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# toolvet is the repo's own analyzer suite (internal/lint): the
# determinism and error-contract invariants — no wall-clock in
# simulation paths, no map iteration feeding output, errors.As/Is over
# bare assertions, bounded goroutine fan-out — machine-checked. Runs
# from the module, so analyzer and code versions move together.
toolvet:
	$(GO) run ./cmd/toolvet ./...

# lint is the full static gate: vet + toolvet + staticcheck (the last
# only when installed — the pinned version is what CI enforces).
lint: vet toolvet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# examples builds and smoke-runs every examples/ program — the local
# mirror of CI's examples job.
examples:
	$(GO) build ./examples/...
	@set -e; for d in examples/*/; do echo "==> $$d"; $(GO) run "./$$d" > /dev/null; done

# toolbenchd-smoke is the local mirror of CI's toolbenchd job: build
# the daemon, run the server suite under the race detector, and stream
# the short-mode concurrent-tenant load test.
toolbenchd-smoke:
	$(GO) build -o /tmp/toolbenchd ./cmd/toolbenchd
	$(GO) test -race ./internal/server
	$(GO) test -race -short -run TestLoadManyConcurrentTenants -v ./internal/server

# remote-smoke is the local mirror of CI's remote-smoke job: build the
# coordinator and worker binaries, distribute a full sweep across two
# spawned worker daemons and diff it against a serial run
# (scripts/remote_smoke.sh), then run the remote-executor suite under
# the race detector.
remote-smoke:
	./scripts/remote_smoke.sh
	$(GO) test -race ./internal/remote

# chaos is the local mirror of CI's chaos job: the seeded
# fault-injection suite under the race detector, once with the pinned
# -short seed and once with a fresh logged seed (reproduce a failure
# with TOOLEVAL_CHAOS_SEED=<seed> make chaos).
chaos:
	$(GO) test -race -short -run TestChaos ./...
	$(GO) test -race -run TestChaos ./...

# fuzz is the local mirror of CI's fuzz job: every Fuzz* target for
# 10s each (scripts/fuzz_smoke.sh).
fuzz:
	./scripts/fuzz_smoke.sh

# bench-smoke compiles and runs every benchmark for exactly one
# iteration — the CI guard against benchmark bit-rot — plus one
# multi-threaded pass of the scheduler-contention benchmark (its
# serial/pooled comparison is meaningless single-threaded).
bench-smoke:
	$(GO) test -run=NoSuchTest -bench=. -benchtime=1x ./...
	$(GO) test -run=NoSuchTest -bench='MemoContention' -benchtime=1x -cpu 4 ./internal/runner

# bench-baseline records the current figure + store + remote + engine
# + scheduler benchmark numbers into BENCH_PR9.json under the "pr9"
# label, carrying the seed/pr3/pr5/pr6 history forward (see
# scripts/record_bench.sh).
bench-baseline:
	./scripts/record_bench.sh pr9

# loc counts the tracked non-test Go lines outside perfbench/ and
# testdata/ — the figure ROADMAP tracks next to perf numbers. Tracked
# files only, so build caches such as .bench_build/ never count.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^perfbench/' | grep -v '/testdata/' | xargs cat | wc -l
