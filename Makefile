GO ?= go

# Minimum statement coverage for the analysis heart of the tool. Both
# packages sit above 90% today; the floor leaves room for small drift but
# catches untested growth.
COVER_FLOOR ?= 85.0
COVER_PKGS  ?= ./internal/vpattern ./internal/core

# Per-target budget for the fuzz gate; the Go fuzzer accepts one -fuzz
# pattern per run, so each target gets its own invocation.
FUZZTIME ?= 20s

# Seed count for the full property-based differential run (make proptest).
# The verify/race gates run the default 10-seed smoke via `go test`.
PROPTEST_SEEDS ?= 200

.PHONY: verify fmt build vet test race bench bench-smoke grid grid-full cover fuzz proptest daemon-smoke

verify: fmt build vet test race bench-smoke grid cover fuzz daemon-smoke

# fmt fails if any file is not gofmt-clean.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race also reruns the pipeline tests on a single P, where the
# kernel-execution goroutine, the compaction workers and the collector
# share one processor and only the Go runtime's preemption interleaves
# them.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1 -run 'TestPipeline' ./internal/core

bench:
	$(GO) test -bench . -benchmem

# bench-smoke compiles and runs every benchmark for exactly one iteration
# (no test functions), catching bit-rotted benchmarks without the cost of
# real measurement. Timing is gated by the grid alone.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# grid is the one timing harness in verify: it runs the checked-in
# smoke experiment grid (2 workloads × 4 worker/depth settings × 3
# repeats, including the capsule-corpus replay workload) through
# cmd/vxgrid, writes per-run and summary CSV/markdown artifacts (with
# the compact/absorb/finalize breakdown) under grid_out/, and gates
# every cell's wall and analysis mean against BENCH_grid.json with the
# statistics-aware comparison (regression = beyond BENCH_TOLERANCE AND
# beyond k·std of the measured repeats). The refreshed baseline is
# written before the gate runs. The full paper grid (grid-full) is
# opt-in: hours, not minutes.
BENCH_TOLERANCE ?= 0.25
grid:
	$(GO) run ./cmd/vxgrid -grid experiments/grid-smoke.json -outdir grid_out \
		-baseline BENCH_grid.json -tolerance $(BENCH_TOLERANCE) -k 3 \
		-out BENCH_grid.json

grid-full:
	$(GO) run ./cmd/vxgrid -grid experiments/grid-full.json -outdir grid_out_full

# fuzz runs each fuzz target for FUZZTIME, growing the checked-in seed
# corpora under {sass,internal/trace}/testdata/fuzz/. Plain `go test`
# replays the corpora; this target explores beyond them.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./sass
	$(GO) test -run='^$$' -fuzz='^FuzzReadModule$$' -fuzztime=$(FUZZTIME) ./sass
	$(GO) test -run='^$$' -fuzz='^FuzzAssemble$$' -fuzztime=$(FUZZTIME) ./sass
	$(GO) test -run='^$$' -fuzz='^FuzzScan$$' -fuzztime=$(FUZZTIME) ./internal/trace

# proptest runs the property-based differential harness over
# PROPTEST_SEEDS seeds under the race detector. A failure prints the
# seed and the exact single-seed repro command.
proptest:
	VX_PROPTEST_SEEDS=$(PROPTEST_SEEDS) $(GO) test -race -run TestDifferentialHarness -v ./internal/proptest

# daemon-smoke drives the vxprofd serving path end to end: start the
# service, attach two workloads as sessions over the /v1 HTTP API, fetch
# /v1/sessions/{id}/report and /v1/metrics, diff each per-session report
# against the equivalent one-shot run, exercise admission quotas (202
# queued / 429 rejected) and restart recovery from the persistent store —
# plus a real SIGTERM drain of the re-executed binary — and bound the live
# heap a finished session keeps.
daemon-smoke:
	$(GO) test -count=1 -run 'TestDaemonSmoke|TestGracefulSIGTERM|TestDaemonQuota|TestDaemonRestartRecovery' -v ./cmd/vxprofd
	$(GO) test -count=1 -run 'TestFinishedSessionRetention' -v ./internal/daemon

# cover enforces COVER_FLOOR percent statement coverage on COVER_PKGS.
cover:
	@$(GO) test -cover $(COVER_PKGS) | awk -v floor=$(COVER_FLOOR) '\
	{ print } \
	/coverage:/ { \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1); \
		sub(/%/, "", pct); \
		if (pct + 0 < floor + 0) { bad = 1; print "FAIL: " $$2 " coverage " pct "% below floor " floor "%" } \
	} \
	END { exit bad }'
