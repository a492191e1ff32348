#!/usr/bin/env bash
# The full local quality gate, in the same order CI runs it:
#
#   1. repro.lint     — the project's own AST rules R001-R006 (always runs)
#   2. repro.analysis — whole-program units dataflow R010-R012,
#                       determinism rules R030-R032, hot-path
#                       complexity R040-R042, and the equation audit
#                       EQ001-EQ003 (always runs)
#   3. ruff           — generic style/bug lint         (if installed)
#   4. mypy           — strict on the foundation modules (if installed)
#   5. pytest         — the tier-1 test suite
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

step "repro.lint (R001-R006)"
python -m repro.lint src tests benchmarks || failures=$((failures + 1))

step "repro.analysis units dataflow (R010-R012)"
python -m repro.analysis --select R01 src || failures=$((failures + 1))

step "repro.analysis determinism (R030-R032)"
python -m repro.analysis --select R03 src || failures=$((failures + 1))

step "repro.analysis hot-path (R040-R042)"
python -m repro.analysis --select R04 src || failures=$((failures + 1))

step "repro.analysis equation audit (EQ001-EQ003)"
python -m repro.analysis --equations || failures=$((failures + 1))

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
