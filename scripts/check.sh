#!/usr/bin/env bash
# The full local quality gate, in the same order CI runs it:
#
#   1. repro.lint — the project's own checker in one pass: per-file
#                   rules R002-R006 and determinism rules R030-R032,
#                   hot-path rules R040-R042 and the equation audit
#                   EQ001-EQ003 (always runs)
#   2. ruff       — generic style/bug lint           (if installed)
#   3. mypy       — strict on the foundation modules (if installed)
#   4. pytest     — the tier-1 test suite
#   5. benches    — the component benches, run once without timing
#   6. harness    — the benchmark harness self-test (benchmarks/suite)
#   7. golden     — the four benchmark workloads at seed 2014, each run
#                   once untimed; a run whose hash misses
#                   benchmarks/suite/golden.json fails the gate
#
# CI also runs the scale-benchmark smoke (benchmarks/bench_scale.py),
# which rewrites the committed BENCH_scale.json; run it by hand.
#
# ruff and mypy are optional-dependency tools (pip install -e '.[lint]');
# when absent locally they are skipped with a notice — CI always installs
# and enforces them.
set -u -o pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

step() {
    echo "==> $*"
}

step "repro.lint (R002-R006, R030-R032, R040-R042, EQ001-EQ003)"
python -m repro.lint src tests benchmarks || failures=$((failures + 1))

if command -v ruff > /dev/null 2>&1; then
    step "ruff"
    ruff check src tests benchmarks || failures=$((failures + 1))
else
    step "ruff not installed — skipping (pip install -e '.[lint]')"
fi

if command -v mypy > /dev/null 2>&1; then
    step "mypy (strict foundation modules)"
    mypy src/repro || failures=$((failures + 1))
else
    step "mypy not installed — skipping (pip install -e '.[lint]')"
fi

step "pytest"
python -m pytest -q || failures=$((failures + 1))

step "component benches (untimed)"
python -m pytest benchmarks/bench_components.py --benchmark-disable -q \
    || failures=$((failures + 1))

step "benchmark harness self-test"
python -m pytest benchmarks/suite -q || failures=$((failures + 1))

# run.py exits 0 even when a run's hash misses golden.json, so the gate
# reads the "correct" flag of its last JSON line.
for workload in paper-fig2 loaded-u1k mobile-u1k sparse-u100k; do
    step "benchmark golden gate: $workload"
    python benchmarks/suite/run.py --workload "$workload" --seed 2014 --seconds 0 \
        | tail -n 1 \
        | python -c "import json, sys; sys.exit(0 if json.load(sys.stdin)['correct'] is True else 1)" \
        || failures=$((failures + 1))
done

if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) FAILED"
    exit 1
fi
echo "check.sh: all steps passed"
