#!/bin/bash
# Regenerates every paper artefact; outputs under results/. Runs from the
# checkout that holds this script, offline like every other build here.
set -exo pipefail
cd "$(dirname "$0")/.."
B=target/release
cargo build --release --offline -p dike-experiments
$B/fig6 --scale 1.0 > results/fig6.txt 2>&1
$B/fig1 --scale 1.0 > results/fig1.txt 2>&1
$B/fig2 --scale 0.3 > results/fig2.txt 2>&1
$B/fig4 --scale 0.3 > results/fig4.txt 2>&1
$B/fig5 --scale 0.3 2 > results/fig5.txt 2>&1
$B/ablations --scale 0.5 1 9 13 > results/ablations.txt 2>&1
# The soak's ledger lines, without their host timings.
$B/failover --soak 2>&1 | sed 's/ | [0-9.]*s host$//' > results/failover_soak.txt
echo ALL_EXPERIMENTS_DONE
