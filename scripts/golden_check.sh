#!/usr/bin/env bash
# Golden-drift gate: replay the golden-fixture regression suite (the
# closed-sweep, fig6, table3, robustness, cachepart, failover and
# one-shot fleet (golden_fleet.json) artefacts serialized under
# crates/experiments/tests/fixtures/), regenerate every committed paper
# artefact under results/ (results/run_all.sh), and then prove that no
# recorded artefact — results/ or the goldens themselves — differs from
# what is committed. A behaviour change to any recorded figure must
# arrive as an explicit re-baseline (DIKE_REGEN_GOLDENS=1 or
# results/run_all.sh, plus a commit that shows the diff), never as a
# silent side effect of a refactor.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q --offline -p dike-experiments --test golden_stability
results/run_all.sh

if ! git diff --exit-code -- results/ crates/experiments/tests/fixtures/; then
    echo "golden_check: FAIL — recorded artefacts drifted (see diff above)." >&2
    echo "If the change is intentional, re-baseline and commit the diff." >&2
    exit 1
fi

echo "golden_check: OK"
