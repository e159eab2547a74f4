#!/usr/bin/env bash
# Output check for changes that must not alter what the simulator
# computes (speed work, refactors). Runs the repository benchmark
# (perfbench/run.py) on all four workloads at seed 1, untraced and
# traced, 3 s each, and fails unless
#  - every run's last line reports "correct": true, and
#  - the sim workloads print the recorded RunResult digests.
#
# Too slow for ctest (about a minute plus the Release build); run it
# from anywhere in the checkout before pushing:
#
#   scripts/check_outputs.sh
#
# The Release build goes to $CARGO_TARGET_DIR (default .bench_build/
# at the repo root), as perfbench/run.py does. Per-run output is kept
# in $CARGO_TARGET_DIR/check_outputs/ for inspection.
set -euo pipefail

cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/.bench_build}"
logs="$CARGO_TARGET_DIR/check_outputs"
mkdir -p "$logs"

# Digests of seed 1 (perfbench/README.md: a change that must not
# alter output must reproduce them).
declare -A want=(
    [sim_grid]=e2fafa436c6863a4
    [sim_pressure]=33b1e21798043195
)

failed=0
for workload in sim_grid sim_pressure serve_mixed serve_overload; do
    for trace in 0 1; do
        out="$logs/$workload.trace$trace.out"
        if ! python3 perfbench/run.py --workload "$workload" --seed 1 \
            --seconds 3 --trace "$trace" >"$out" \
            2>"$logs/$workload.trace$trace.err"; then
            echo "FAIL $workload --trace $trace: exited non-zero" \
                "(see $out)"
            failed=1
            continue
        fi
        verdict=ok
        if ! tail -n 1 "$out" | grep -q '"correct": true'; then
            echo "FAIL $workload --trace $trace: not correct:"
            grep '^check FAIL' "$out" || tail -n 1 "$out"
            verdict=FAIL
        fi
        if [[ -n "${want[$workload]:-}" ]]; then
            got=$(sed -n "s/^digest $workload \([0-9a-f]*\) seed 1$/\1/p" \
                "$out")
            if [[ "$got" != "${want[$workload]}" ]]; then
                echo "FAIL $workload --trace $trace: digest" \
                    "'$got', want ${want[$workload]}"
                verdict=FAIL
            fi
        fi
        [[ $verdict == ok ]] || failed=1
        echo "$verdict $workload --trace $trace"
    done
done

if [[ $failed != 0 ]]; then
    echo "check_outputs: FAILED"
    exit 1
fi
echo "check_outputs: all workloads correct, digests unchanged"
