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

if [ "$failures" -ne 0 ]; then
    echo "check.sh: $failures step(s) FAILED"
    exit 1
fi
echo "check.sh: all steps passed"
