#!/usr/bin/env bash
# Local dry run of .github/workflows/ci.yml — same jobs, same commands,
# degraded gracefully to what the machine has:
#
#   * lint        ruff check + ruff format --check   (skipped if no ruff)
#   * test        tier-1 pytest on every python3.10/3.11/3.12 found
#   * test-no-numpy  tier-1 with numpy blocked via scripts/block_numpy.py
#                    (emulates the CI venv that never installs numpy),
#                    then the irregular suite end to end on zoo:unicore
#   * perf-smoke  pytest -m perf_smoke, Figure 15 quick with a parallel
#                 prewarm, the irregular suite on zoo:epyc2p (both with
#                 --no-cache, so they simulate instead of reading a
#                 result cache) + the quickstart trace artifact
#   * figure-shapes  benchmarks/ shape assertions (quick subset), the
#                    perfbench self-tests and the perfbench gate
#   * service-smoke  scripts/service_smoke.py: 2-worker shard, single
#                    process, persistent shard over a cache directory
#   * service-coverage  tests/service under coverage, >= 85%
#                    (skipped if pytest-cov is not installed)
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

note "irregular suite end to end without numpy"
PYTHONPATH=src:. python3 -c '
import sys
import scripts.block_numpy  # noqa: F401  (before repro, as in the CI venv)
from repro.cli import main
sys.exit(main(sys.argv[1:]))
' experiments --only machine_zoo_irregular --machine zoo:unicore --jobs 1 \
    --no-cache || fail "irregular suite without numpy"

# -- perf smoke + trace artifact ------------------------------------------
note "perf smoke"
python3 -m pytest -q -m perf_smoke || fail "perf smoke"

note "one figure, parallel prewarm + batched backend"
python3 -m repro experiments --only figure_15 --quick --jobs 2 --no-cache \
    || fail "figure_15 (quick, --jobs 2)"

note "irregular suite on a zoo machine (vectorized gather)"
python3 -m repro experiments --only machine_zoo_irregular --machine zoo:epyc2p \
    --jobs 2 --no-cache || fail "irregular suite on zoo:epyc2p"

note "quickstart trace artifact"
TRACE_OUT="$(mktemp -d)/trace.jsonl"
python3 -m repro trace examples/quickstart.loop --out "$TRACE_OUT" >/dev/null \
    && python3 -m repro.obs.report "$TRACE_OUT" >/dev/null \
    || fail "quickstart trace"

# -- figure shapes + perfbench ---------------------------------------------
note "figure shapes (quick subset) + perfbench self-tests + perfbench gate"
python3 -m pytest benchmarks -q || fail "figure shapes"
python3 -m pytest perfbench/tests -q || fail "perfbench self-tests"
python3 scripts/perfbench_gate.py || fail "perfbench gate"

# -- service smoke + coverage ----------------------------------------------
note "service smoke (shard, single process, persistent shard)"
SMOKE_DIR="$(mktemp -d)"
python3 scripts/service_smoke.py --out "$SMOKE_DIR/service-smoke.json" \
    || fail "service smoke"
python3 scripts/service_smoke.py --workers 1 \
    --out "$SMOKE_DIR/service-smoke-single.json" \
    || fail "service smoke (single process)"
python3 scripts/service_smoke.py --workers 2 --cache-dir "$SMOKE_DIR/smoke-cache" \
    --out "$SMOKE_DIR/service-smoke-persistent.json" \
    || fail "service smoke (persistent shard)"

note "service coverage (>= 85%)"
if python3 -c "import pytest_cov" >/dev/null 2>&1; then
    python3 -m pytest tests/service -q -ra \
        --cov=repro.service --cov-report=term-missing --cov-fail-under=85 \
        || fail "service coverage"
else
    skip "service coverage: pytest-cov not installed (CI installs it with pip)"
fi

# -- summary ---------------------------------------------------------------
printf '\n== ci_local summary ==\n'
for s in "${SKIPPED[@]:-}"; do [ -n "$s" ] && printf 'skipped: %s\n' "$s"; done
if [ "$FAILED" -ne 0 ]; then
    echo "result: FAILED"
    exit 1
fi
echo "result: OK (skips above run only in CI)"
