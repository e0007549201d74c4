#!/bin/bash
# Regenerates every paper artefact; outputs under results/. Runs from the
# checkout that holds this script, offline like every other build here.
set -x
cd "$(dirname "$0")/.."
B=target/release
cargo build --release --offline -p dike-experiments
$B/fig6a --scale 1.0 > results/fig6a.txt 2>&1
$B/fig6b --scale 1.0 > results/fig6b.txt 2>&1
$B/table3 --scale 1.0 > results/table3.txt 2>&1
$B/fig7 --scale 1.0 > results/fig7.txt 2>&1
$B/fig8 --scale 1.0 > results/fig8.txt 2>&1
$B/fig1 --scale 1.0 > results/fig1.txt 2>&1
$B/fig2 --scale 0.3 > results/fig2.txt 2>&1
$B/fig4 --scale 0.3 > results/fig4.txt 2>&1
$B/fig5 --scale 0.3 2 > results/fig5.txt 2>&1
$B/ablations --scale 0.5 1 9 13 > results/ablations.txt 2>&1
echo ALL_EXPERIMENTS_DONE
