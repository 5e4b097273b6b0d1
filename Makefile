.PHONY: all build test check chaos-smoke audit-smoke bench-smoke perfbench-smoke fuzz-smoke live-smoke live-chaos-smoke live-schnorr-smoke ingest-smoke scale-smoke sim-trace-pin fmt bench loc clean

all: build

build:
	dune build

test:
	dune runtest

# The one-stop gate: everything compiles, the full test suite passes,
# and a tiny seeded chaos scenario exercises the fault-injection paths.
check:
	dune build && dune runtest && $(MAKE) chaos-smoke && $(MAKE) audit-smoke && $(MAKE) scale-smoke && $(MAKE) bench-smoke && $(MAKE) perfbench-smoke && $(MAKE) fuzz-smoke && $(MAKE) live-smoke && $(MAKE) live-chaos-smoke && $(MAKE) live-schnorr-smoke && $(MAKE) ingest-smoke && $(MAKE) sim-trace-pin

# Small deterministic fault-injection run (churn + partitions + loss
# bursts + latency spikes + link degradation); exits non-zero if any
# honest node ends up exposed.
chaos-smoke:
	dune exec bin/lo.exe -- chaos -n 16 --duration 8 --rate 5 --reps 1 --seed 1

# Trace a seeded chaos run with the invariant auditor attached (commit
# monotonicity, canonical order, suspicion liveness, bandwidth
# conservation, span balance); exits non-zero on any violation.
audit-smoke:
	dune exec bin/lo.exe -- trace chaos -n 16 --duration 8 --rate 5 --seed 1 --audit

# Conformance fuzzing at a seconds-scale budget: a seeded batch of
# generated scenarios judged against the full oracle stack, plus one
# mutation run that plants a hidden protocol violation and requires
# the oracles to catch it — so the smoke fails both when the protocol
# regresses and when the harness goes blind.
fuzz-smoke:
	dune exec bin/lo.exe -- fuzz -n 24 --seed 1
	dune exec bin/lo.exe -- fuzz -n 8 --seed 1 --mutate inject

# Real processes, real sockets: an 8-node localhost cluster over the
# live TCP transport for 5 seconds. The forked nodes' traces are merged
# into one stream and replayed through the invariant auditor; the exit
# code is non-zero on any audit violation, honest exposure, or node
# crash.
live-smoke:
	dune exec bin/lo.exe -- cluster -n 8 --tps 40 --duration 5 --seed 1 --base-port 7611

# The same live cluster under supervised chaos: two nodes are
# SIGKILLed mid-run and respawned (rebuilding their commitment logs
# from their own write-ahead traces), and every host injects seeded
# socket-level frame faults (drop/duplicate/delay/truncate/garble).
# The merged per-incarnation stream must still pass all five audit
# invariants with zero honest exposures.
live-chaos-smoke:
	dune exec bin/lo.exe -- cluster -n 8 --tps 40 --duration 6 --seed 1 --base-port 7731 --chaos kills=2,down=1.2

# The live cluster on real signatures: every node's identity is a
# secp256k1 key, every transaction and commitment digest carries a real
# Schnorr signature, and verification goes through the batched
# kernel (a comb table for a key that signs at least 8 signatures of a
# chunk, kept in each host's bounded comb cache across batches, so the
# one client key's comb is built once per process; GLV/wNAF ladders
# for the others). One node is SIGKILLed and respawned mid-run; the
# merged trace must pass all five audit invariants with zero honest
# exposures.
live-schnorr-smoke:
	dune exec bin/lo.exe -- cluster -n 4 --tps 40 --duration 5 --seed 1 --base-port 7971 --signer schnorr --chaos kills=1

# A short live ingest burst: a small cluster driven at an elevated
# offered load, so content-sync Tx_batch frames carry real
# multi-transaction bundles through Content_sync.ingest_batch, the one
# admission path the simulator shares (one batched signature
# verification per frame); live hosts commit each frame's fresh ids as
# one signed digest. Same audit discipline as live-smoke — the merged
# trace must pass every replay invariant and no node may crash or end
# up exposed.
ingest-smoke:
	dune exec bin/lo.exe -- cluster -n 4 --tps 250 --duration 4 --seed 2 --base-port 7851

# The simulator's reference trace: one traced run of the benchmark's
# 200-node sim-fig6 world at seed 1 (about 30 s) must hash to the
# pinned value. Transaction ids, signatures, digests, bundle
# granularity and event order all feed the hash, so a change that
# should be trace-neutral and is not fails here.
sim-trace-pin:
	@err=$$(python3 perfbench/run.py --workload sim-fig6 --seed 1 --seconds 30 --trace 1 2>&1 >/dev/null) \
		|| { echo "$$err"; exit 1; }; \
	want="reference trace 4eb55287de660b5ca4c281a0dd919bff"; \
	if echo "$$err" | grep -q "$$want"; then \
		echo "sim-trace-pin: $$want"; \
	else \
		echo "$$err"; echo "sim-trace-pin: expected $$want"; exit 1; \
	fi

# A 2,000-node fig6-style sharded sweep (4 worlds of 500 nodes, 10%
# silent censors, neighbour rotation, block production), audited shard
# by shard with the five invariants as the events are emitted; exits
# non-zero on any honest-blaming violation or honest exposure.
# This is the paper-scale path at a sub-minute budget — the full
# 10,000-node sweep is `dune exec bin/lo.exe -- scale -n 10000`.
scale-smoke:
	dune exec bin/lo.exe -- scale -n 2000 --seed 1

# Formatting is checked only when ocamlformat is available; the
# toolchain image does not ship it and installing is out of scope.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

bench:
	dune exec bench/main.exe

# Lines of .ml + .mli in the shipped code (lib/, bin/, examples/): the
# size ROADMAP item 9 tracks. It prints the total and gates nothing.
loc:
	@find lib bin examples -name '*.ml' -o -name '*.mli' | xargs cat | wc -l

# Micro-benchmarks only, at a tiny measurement budget: seconds, not
# minutes. Writes BENCH_smoke.json and schema-validates it (the bench
# binary exits non-zero on a malformed file), so `make check` catches a
# broken benchmark or emitter without paying for a full run. The
# committed BENCH_results.json baseline comes from a full `make bench`.
bench-smoke:
	LO_BENCH_MICRO_ONLY=1 LO_BENCH_SMOKE=1 LO_BENCH_OUT=BENCH_smoke.json dune exec bench/main.exe

# The repository benchmark's measuring program, built from source and
# run for two seconds on its crypto-bound workload: fails when it does
# not build against the library APIs it calls, or when its correctness
# gate fails (run.py exits non-zero on either).
perfbench-smoke:
	python3 perfbench/run.py --workload ingest-schnorr --seed 1 --seconds 2

clean:
	dune clean
