#!/usr/bin/env bash
# Full offline verification: build, test and lint the whole workspace
# without touching the network. This is the CI entry point; it must pass
# on a machine with no crates.io access (the workspace has no external
# dependencies — everything lives in crates/util).
#
# Each step is timed and named: on failure the script prints exactly
# which step broke and how long the run had been going, so a CI log read
# starts at the answer instead of a scrollback hunt.
set -euo pipefail
cd "$(dirname "$0")/.."

total_t0=$SECONDS

# Run one named verification step, timing it and failing fast with the
# step's name on a non-zero exit.
step() {
    local name=$1
    shift
    local t0=$SECONDS
    echo "==> $name"
    if ! "$@"; then
        echo "verify: FAIL in step '$name' after $((SECONDS - t0))s," \
             "$((SECONDS - total_t0))s into the run" >&2
        exit 1
    fi
    echo "<== $name: OK ($((SECONDS - t0))s)"
}

# Offline purity: no manifest may reintroduce a crates.io dependency.
step "offline-guard" scripts/offline_guard.sh

step "fmt" cargo fmt --all -- --check
step "build" cargo build --release --offline --workspace --all-targets
step "test" cargo test -q --offline --workspace
step "clippy" cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc: every intra-doc link must resolve. Deleting or renaming an item
# leaves the links to it dangling, and nothing but rustdoc notices.
step "doc" env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

# Engine differential property, run hard: 600 random machines ticking
# through `run_for` (quiescent ticks, spans, the step cache, phase
# freshness, the cached next expiry) and retiring their finished
# threads mid-run (`retire_finished`) against a twin whose every tick is
# cold and which never retires, bit for bit, compared by thread id.
# Release, because 600 cases are slow in debug.
step "engine-fast-vs-cold" env DIKE_CHECK_CASES=600 \
    cargo test -q --release --offline -p dike-machine --lib \
    fast_ticks_match_cold_ticks_on_random_machines

# Fleet-loop properties, run hard: the fleet's one epoch loop against
# the one-pass router (`dispatch()` assigns every machine exactly the
# threads `run()` and a blind `run_failover` admit, on random fleets that
# drain), conservation under random machine faults, the M=1 roll-up, and
# the one result schema on every result of both entry points (the
# ledger balances, `total_departures == ledger.drained`, Σ machine
# `admitted` == `total_arrivals`, Σ tenant `offered` == `dispatched` ==
# offered threads, Σ tenant `lost` == `ledger.lost`, a completed fleet
# has only completed machines, and `run()` equals the one-epoch blind
# `run_failover`). Release, because 500 cases are slow in debug.
step "fleet-loop-properties" env DIKE_CHECK_CASES=500 \
    cargo test -q --release --offline -p dike-fleet --test properties

# Driver observe property, run hard: random open workloads with a wait
# queue, per-thread faults on and off, driven through the driver's one
# entry point (`drive`) whole and in random epoch slices. Every view must
# be the live set when faults are off, report each departure once and
# list ids in ascending order. Release, because 600 cases are slow in
# debug.
step "driver-observe" env DIKE_CHECK_CASES=600 \
    cargo test -q --release --offline -p dike-sched-core --test observe

# Parallel-driver smoke: the pooled sweeps — closed, open-system and the
# fleet roll-up — must stay byte-identical to the serial path when
# actually running on multiple workers.
step "parallel-determinism (DIKE_THREADS=2)" \
    env DIKE_THREADS=2 cargo test -q --offline -p dike-experiments --test parallel_determinism

# Allocation discipline (counting global allocator, tests/zero_alloc.rs):
# post-warmup quanta of the closed driver must not allocate; a whole
# smoke-fleet lap (8 machines, ~49k admitted threads) must stay under one
# allocation event per eight admitted threads — the fleet allocation
# budget, so a per-thread allocation creeping back into the spawn path
# (a spec owning its program) fails here; and `drive` admitting a
# 2,000-thread plan into a fresh machine must stay under 100 events, so a
# per-thread machine column grown by doubling fails too. Two heap gates
# read live bytes. The fleet heap gate: the same smoke-fleet lap on one
# worker must peak under 256 live bytes per admitted thread above its
# start, and hold under 4 per thread once its result is dropped, so a
# machine that outlives its last epoch fails. The failover heap gate:
# a warm multi-epoch `run_failover` lap of that fleet under machine
# faults must peak under 320 live bytes per admitted thread, so a
# machine that keeps finished threads' hot rows (≈260 B each) past the
# epoch barrier fails.
# The workspace test run above already covers this; the named re-run
# makes a regression fail loudly as its own step.
step "zero-alloc" cargo test -q --offline -p dike-repro --test zero_alloc

# Robustness smoke: the fault-injection degradation sweep end to end at a
# tiny scale — every policy must survive every swept fault level (no
# panics, no NaN) with the hardened pipeline in the comparison set.
step "robustness-smoke" bash -c \
    'cargo run -q --release --offline -p dike-experiments --bin robustness -- --scale 0.02 > /dev/null'

# Fleet smoke: the 8-machine multi-tenant fleet end to end — the epoch
# loop's one-epoch case: routing at the single barrier, per-machine open
# runs, fleet-wide fairness roll-up.
step "fleet-smoke" bash -c \
    'cargo run -q --release --offline -p dike-experiments --bin fleet -- --quick > /dev/null'

# Failover smoke: the epoch-driven fault-tolerant fleet at the harshest
# swept fault cell, both dispatchers — health barriers, quarantine,
# orphan re-dispatch and the conservation ledger (asserted per cell).
step "failover-smoke" bash -c \
    'cargo run -q --release --offline -p dike-experiments --bin failover -- --quick > /dev/null'

# Cache-partitioning smoke: both actuators end to end at a tiny scale —
# LFOC classification and plan building, the engine's partitioned
# contention solve, and the partition actuation channel, across clean and
# faulted cells for all five policies.
step "cachepart-smoke" bash -c \
    'cargo run -q --release --offline -p dike-experiments --bin cachepart -- --scale 0.02 > /dev/null'

# Golden drift: replay the golden-fixture suite, regenerate results/
# with results/run_all.sh (about 8 s in release) and prove that the
# regenerated artefacts and the goldens equal the committed ones.
step "golden-check" scripts/golden_check.sh

# The benchmark (declared by BENCHMARK.json) is a package of its own
# outside the workspace, so the workspace test step above never runs its
# tests: smoke laps of every workload, the output checks, the engine
# replay and the --compare verdicts.
step "benchmark-tests" \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Long-churn soak: the fleet under worst-case per-machine faults plus
# heavy machine-scope crash/brownout churn, both dispatchers, a 30 s
# arrival window. The run is a pure function of its seeds and bounded by
# the fleet deadline (about a second in release), and conservation is
# asserted inside it, so a trip here fails the gate.
step "failover-soak" bash -c \
    'cargo run -q --release --offline -p dike-experiments --bin failover -- --soak > /dev/null'

echo "verify: OK ($((SECONDS - total_t0))s total)"
