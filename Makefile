# Tier-1 verification gate. `make check` is what CI and pre-merge runs:
# formatting + vet + build (release and `-tags debug` ownership-checked
# variants) + the full test suite under the race detector, so the
# experiment harness's concurrency (internal/par, internal/exp, the
# parallel sweep drivers) is race-checked on every change.

GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt-check vet build build-debug test race invariants degradation tournament telemetry resilience bench bench-obs bench-kernel bench-kernel-gate perfbench-check paperbench clean

check: fmt-check vet build build-debug race

fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The debug build enables the packet-pool ownership checker (double
# release panics, poisoned freed packets); its tests exercise the
# checker itself.
build-debug:
	$(GO) build -tags debug ./...
	$(GO) test -tags debug ./internal/ib ./internal/fabric ./internal/cc

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Runtime invariant + differential kernel suite: the internal/check unit
# tests, the Table II wheel-vs-reference-heap trajectory comparison (run
# with -count=1 so the differential corpus always executes), and an
# end-to-end checked run through the paperbench CLI.
invariants:
	$(GO) test -count=1 ./internal/check
	$(GO) test -count=1 ./internal/core -run 'Kernel|Check|Differential'
	$(GO) run ./cmd/paperbench -radix 8 -diff-kernel -seeds 2

# Fault-injection smoke: the fault-layer unit suites, then a tiny
# graceful-degradation sweep (2 seeds, zero + nonzero intensity) through
# the paperbench CLI under the invariant checker — end to end over the
# Dropped custody ledger.
degradation:
	$(GO) test -count=1 ./internal/fault ./internal/fabric -run 'Fault|Drop|Link'
	$(GO) test -count=1 ./internal/core -run 'Fault|ZeroIntensity|CCSurvives|Degradation'
	$(GO) run ./cmd/paperbench -radix 8 -degradation /tmp/ibcc-degradation.json \
		-intensities 0,0.6 -seeds 2 -check

# Backend tournament smoke: the tournament unit suite, then a reduced
# bracket (radix 8, 2 seeds, 2 backends, one fault intensity) through
# the paperbench CLI under the invariant checker, rendered back from
# the JSON artifact with cctinspect.
tournament:
	$(GO) test -count=1 ./internal/tournament
	$(GO) test -count=1 ./internal/cc -run 'Backend|RCM|Registry|NoCC|Oracle'
	$(GO) run ./cmd/paperbench -radix 8 -tournament /tmp/ibcc-tournament.json \
		-cc ibcc,nocc -intensities 0.6 -seeds 2 -check
	$(GO) run ./cmd/cctinspect -tournament /tmp/ibcc-tournament.json

# Telemetry smoke: the telemetry unit suite (histogram quantile bounds,
# sampler zero-perturbation, span tracker, report schema, HTTP server),
# the obs-layer digest-stability guards, then end to end: a short sweep
# with the live dashboard on an ephemeral port, /metrics.json probed
# mid-sweep and after it, the unified run report written and finally
# validated + rendered back with cctinspect.
telemetry:
	$(GO) test -count=1 ./internal/telemetry
	$(GO) test -count=1 ./internal/obs -run 'Digest|Telemetry|MsgCompleted'
	$(GO) test -count=1 ./internal/core -run 'Telemetry'
	$(GO) run ./cmd/paperbench -radix 8 -degradation /tmp/ibcc-telemetry-deg.json \
		-intensities 0,0.6 -seeds 1 -serve 127.0.0.1:0 -serve-probe \
		-report /tmp/ibcc-telemetry-report.json
	$(GO) run ./cmd/cctinspect -report /tmp/ibcc-telemetry-report.json

# Crash-safety smoke: the checkpoint format + differential restore
# suites (byte-identical continuation), the executor's retry / watchdog
# / quarantine / manifest suite (including the always-panicking job that
# must end up quarantined while the sweep completes), then the CLI story
# end to end via scripts/resilience_smoke.sh: SIGKILL an in-flight
# checkpointing run and a sweep, resume both, require identical output
# and an identical artifact set.
resilience:
	$(GO) test -count=1 ./internal/ckpt ./internal/fault -run 'Decode|Encode|SaveAtomic|Validate|Keeper|Latest|Cadence|InjectorState'
	$(GO) test -count=1 ./internal/core -run 'Checkpoint'
	$(GO) test -count=1 ./internal/exp -run 'Retries|Retry|Timeout|Quarantine|Corrupt|CRC|Manifest'
	sh scripts/resilience_smoke.sh

bench:
	$(GO) test -bench=. -benchmem

# Flight-recorder overhead: the disabled-bus benchmark must report
# 0 allocs/op, proving observability costs nothing when off.
bench-obs:
	$(GO) test ./internal/obs -bench=Bus -benchmem

# Event kernel + packet lifecycle: the timing-wheel and pooled-packet
# hot paths, written machine-readably (events/s, allocs, speedup over
# the pinned pre-wheel baseline) to BENCH_kernel.json.
bench-kernel:
	$(GO) test ./internal/sim -run '^$$' -bench 'BenchmarkKernel' -benchmem
	$(GO) test ./internal/core -run '^$$' -bench BenchmarkPacketLifecycle -benchmem
	$(GO) run ./cmd/paperbench -bench-kernel BENCH_kernel.json

# Kernel performance regression gate: the in-tree best-of-N guard test
# against the committed BENCH_kernel.json, then a fresh paperbench
# measurement (reduced budget, best of 3) compared against the same
# committed baseline — either fails on a >10% steady-state regression.
bench-kernel-gate:
	$(GO) test -count=1 -timeout 20m ./internal/core -run TestKernelBenchGuard
	$(GO) run ./cmd/paperbench -bench-kernel /tmp/ibcc-bench-gate.json \
		-bench-events 8000000 -bench-baseline BENCH_kernel.json

# Trajectory pin for the end-to-end benchmark: one short pass of every
# perfbench workload (radix 18 and radix 36), each simulation's output
# signature checked against the committed perfbench/signatures.json.
# run.sh exits 0 on a signature mismatch, so the verdict is read from
# the final JSON line: it must report "correct":true and "failed":0.
# This is the only trajectory check at radix 36; the golden digests
# run at radix 12.
perfbench-check:
	@mkdir -p .bench_build
	bash perfbench/run.sh --workload all --seed 1 --seconds 1 > .bench_build/perfbench-check.out
	@tail -n 1 .bench_build/perfbench-check.out | grep -q '^{"correct":true,' && \
		tail -n 1 .bench_build/perfbench-check.out | grep -q '"failed":0,' || { \
		tail -n 1 .bench_build/perfbench-check.out | cut -c 1-200; \
		echo "perfbench-check: a simulation's signature differs from perfbench/signatures.json"; exit 1; }
	@echo "perfbench-check: every workload matches perfbench/signatures.json"

# Quick end-to-end smoke: one figure, parallel, with artifacts.
paperbench:
	$(GO) run ./cmd/paperbench -radix 12 -exp fig5 -jobs 0 -out /tmp/ibcc-artifacts

clean:
	$(GO) clean ./...
