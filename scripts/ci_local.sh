#!/usr/bin/env bash
# Local dry run of .github/workflows/ci.yml — same jobs, same commands,
# degraded gracefully to what the machine has:
#
#   * lint        ruff check + ruff format --check   (skipped if no ruff)
#   * test        tier-1 pytest on every python3.10/3.11/3.12 found
#   * test-no-numpy  tier-1 with numpy blocked via scripts/block_numpy.py
#                    (emulates the CI venv that never installs numpy)
#   * perf-smoke  pytest -m perf_smoke + the quickstart trace artifact
#   * figure-shapes  benchmarks/ shape assertions (quick subset, no
#                    benchmarks/perf) + the perfbench self-tests
#
# Run from the repository root:  bash scripts/ci_local.sh
set -u
cd "$(dirname "$0")/.."

export PYTHONPATH=src
FAILED=0
SKIPPED=()

note()  { printf '\n== %s ==\n' "$*"; }
fail()  { printf 'FAIL: %s\n' "$*"; FAILED=1; }
skip()  { printf 'SKIP: %s\n' "$*"; SKIPPED+=("$*"); }

# -- lint ------------------------------------------------------------------
note "lint (ruff)"
if command -v ruff >/dev/null 2>&1; then
    ruff check . || fail "ruff check"
    ruff format --check src/repro/obs tests/obs scripts || fail "ruff format --check"
else
    skip "lint: ruff not installed (CI installs it with pip); running scripts/lint_fallback.py"
    python3 scripts/lint_fallback.py || fail "lint_fallback"
fi

# -- test matrix -----------------------------------------------------------
FOUND_PY=0
for py in python3.10 python3.11 python3.12; do
    # Probe by executing: a pyenv shim can exist for a version that is
    # not actually installed, and pytest may be missing from some.
    if "$py" -m pytest --version >/dev/null 2>&1; then
        FOUND_PY=1
        note "tier-1 ($py)"
        "$py" -m pytest -x -q || fail "tier-1 on $py"
    else
        skip "tier-1: $py (with pytest) not installed (CI covers the full matrix)"
    fi
done
if [ "$FOUND_PY" -eq 0 ]; then
    note "tier-1 (python3)"
    python3 -m pytest -x -q || fail "tier-1 on python3"
fi

# -- no-numpy job ----------------------------------------------------------
note "tier-1 without numpy (scalar fallback)"
PYTHONPATH=src:. python3 -m pytest -x -q -p scripts.block_numpy \
    || fail "tier-1 without numpy"

# -- perf smoke + trace artifact ------------------------------------------
note "perf smoke"
python3 -m pytest -q -m perf_smoke || fail "perf smoke"

note "quickstart trace artifact"
TRACE_OUT="$(mktemp -d)/trace.jsonl"
python3 -m repro trace examples/quickstart.loop --out "$TRACE_OUT" >/dev/null \
    && python3 -m repro.obs.report "$TRACE_OUT" >/dev/null \
    || fail "quickstart trace"

# -- figure shapes + perfbench self-tests ----------------------------------
note "figure shapes (quick subset) + perfbench self-tests"
python3 -m pytest benchmarks --ignore=benchmarks/perf -q || fail "figure shapes"
python3 -m pytest perfbench/tests -q || fail "perfbench self-tests"

# -- summary ---------------------------------------------------------------
printf '\n== ci_local summary ==\n'
for s in "${SKIPPED[@]:-}"; do [ -n "$s" ] && printf 'skipped: %s\n' "$s"; done
if [ "$FAILED" -ne 0 ]; then
    echo "result: FAILED"
    exit 1
fi
echo "result: OK (skips above run only in CI)"
