# Tier-1 verification gate (documented in README.md): every change must
# keep `make verify` green before merging.
GO ?= go

.PHONY: verify vet lint build test race bench eval evalfull chaos perf readiness

verify: vet lint build race

vet:
	$(GO) vet ./...

# lint runs the repo's own invariant-enforcing analyzers (kloclint):
# determinism hygiene, errno discipline, alloc/free pairing
# (nodeterminism, errnocheck, allocpair, lifecycle, errnoflow), trace
# catalog membership and reachability (tracereach), and kernel
# ownership (ownership, rngflow, phasecheck — DESIGN.md §10, §14,
# §15). It also
# fails when the checked-in PARALLEL_READINESS.md drifts from the code
# (the report is regenerated twice — a determinism check in itself —
# and compared) and when the shared-state count moves off the
# .ownership-ratchet baseline in either direction.
lint:
	$(GO) run ./cmd/kloclint
	$(GO) run ./cmd/kloclint -ownership-ratchet .ownership-ratchet
	$(GO) run ./cmd/kloclint -ownership-report .readiness.run1.tmp
	$(GO) run ./cmd/kloclint -ownership-report .readiness.run2.tmp
	@cmp .readiness.run1.tmp .readiness.run2.tmp || \
		{ rm -f .readiness.run1.tmp .readiness.run2.tmp; \
		  echo "lint: ownership report not byte-stable across identical runs"; exit 1; }
	@cmp .readiness.run1.tmp PARALLEL_READINESS.md || \
		{ rm -f .readiness.run1.tmp .readiness.run2.tmp; \
		  echo "lint: PARALLEL_READINESS.md is stale — run 'make readiness'"; exit 1; }
	@rm -f .readiness.run1.tmp .readiness.run2.tmp

# readiness regenerates the checked-in parallel-readiness inventory
# (the sharded-engine spec, ROADMAP item 2) from the code.
readiness:
	$(GO) run ./cmd/kloclint -ownership-report PARALLEL_READINESS.md

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# eval regenerates eval_quick.txt from two back-to-back runs and fails
# if they differ: the committed evaluation is only meaningful if the
# simulation is byte-stable at a fixed seed.
eval:
	$(GO) run ./cmd/klocbench -exp all -quick > .eval.run1.tmp
	$(GO) run ./cmd/klocbench -exp all -quick > .eval.run2.tmp
	@cmp .eval.run1.tmp .eval.run2.tmp || \
		{ rm -f .eval.run1.tmp .eval.run2.tmp; \
		  echo "eval: output not byte-stable across identical runs"; exit 1; }
	mv .eval.run1.tmp eval_quick.txt
	rm -f .eval.run2.tmp

# evalfull prints the full-fidelity evaluation to stdout (slow).
evalfull:
	$(GO) run ./cmd/klocbench -exp all

# chaos runs the fixed-seed quick chaos campaign (DESIGN.md §12); an
# invariant violation exits 1 and leaves CHAOS_repro_*.json behind for
# `klocbench -exp chaos -replay <file>`.
chaos:
	$(GO) run ./cmd/klocbench -exp chaos -quick -chaos-out BENCH_chaos.json

# perf runs the quick hot-path accounting sweep, fast path vs exact
# reference (PERFORMANCE.md), with wall metrics on stdout and the
# deterministic report in BENCH_perf.json; exits 1 if the fast path
# regresses below the exact reference on any micro stage.
perf:
	$(GO) run ./cmd/klocbench -exp perf -quick -perf-out BENCH_perf.json
