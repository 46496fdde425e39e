#!/usr/bin/env bash
# Attention benchmark entry point: runs the attention bench suite and
# writes BENCH_attention.json (median/p95 ns per iteration, per bench
# name) to the repo root.
#
# Usage:
#   scripts/bench.sh            # full measurement run
#   scripts/bench.sh --check    # run fresh, compare vs committed
#                               # BENCH_attention.json, fail if any
#                               # decode or prefill row regressed >25%
#   TURBO_BENCH_SMOKE=1 scripts/bench.sh   # 1-iteration smoke (CI)
#
# In --check mode nothing is overwritten: fresh results go to a temp
# file and are compared against the committed baseline. Under
# TURBO_BENCH_SMOKE the medians are single-iteration noise, so --check
# degrades to schema + row-coverage validation (every baseline gated
# row must still exist) without the median comparison. The regression
# threshold can be overridden with TURBO_BENCH_CHECK_THRESHOLD
# (default 1.25 = fail on >25% slowdown).
#
# The output path can be overridden with TURBO_BENCH_OUT.
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
  shift
fi
if [[ $# -gt 0 ]]; then
  echo "usage: scripts/bench.sh [--check]" >&2
  exit 2
fi

BASELINE="$(pwd)/BENCH_attention.json"
if [[ "${CHECK}" == "1" ]]; then
  test -s "${BASELINE}" || { echo "error: no baseline at ${BASELINE}" >&2; exit 1; }
  OUT="$(mktemp -t bench_check.XXXXXX.json)"
  trap 'rm -f "${OUT}"' EXIT
else
  OUT="${TURBO_BENCH_OUT:-${BASELINE}}"
fi
# Cargo runs bench binaries with the package dir as cwd, so anchor
# relative paths at the repo root.
case "${OUT}" in
  /*) ;;
  *) OUT="$(pwd)/${OUT}" ;;
esac

echo "==> cargo bench --bench attention (results -> ${OUT})"
TURBO_BENCH_OUT="${OUT}" cargo bench -q -p turbo-bench --bench attention

test -s "${OUT}" || { echo "error: ${OUT} was not produced" >&2; exit 1; }

if [[ "${CHECK}" == "0" ]]; then
  echo "==> ${OUT}:"
  cat "${OUT}"
  exit 0
fi

echo "==> comparing fresh medians against ${BASELINE}"
TURBO_BENCH_CHECK_THRESHOLD="${TURBO_BENCH_CHECK_THRESHOLD:-1.25}" \
TURBO_BENCH_SMOKE="${TURBO_BENCH_SMOKE:-}" \
python3 - "${BASELINE}" "${OUT}" <<'EOF'
import json, os, sys

# Median-gated prefixes: any row under these regressing past the
# threshold fails the check. Decode rows have always been gated;
# prefill rows joined once the SIMD integer kernels made the turbo
# prefill path actually faster than flash_f32 — before that the prefill
# numbers were recorded but never compared, which let a 1.6x-slower
# quantized prefill hide in the baseline for several PRs. The multilayer
# rows gate the layer-pipeline engines: both the serialized reference
# and the pipelined path must hold their medians, so neither a slow DAG
# build nor pool-dispatch bloat can creep in unnoticed.
GATED_PREFIXES = (
    "attention/decode_over_256/",
    "attention/prefill_256x64/",
    "attention/turbo_prefill_block_size/",
    "attention/multilayer_8layer/",
)
# Coverage-only prefixes: rows must keep existing, but their medians are
# not regression-gated (fleet/serving episodes are whole-scenario runs —
# a full control loop or a 2048-sequence continuous-batching episode —
# tracked for the requests/s and sequences/s trends rather than gated).
COVERAGE_PREFIXES = GATED_PREFIXES + (
    "fleet/",
    "serving/",
)

with open(sys.argv[1]) as f:
    baseline = json.load(f)
with open(sys.argv[2]) as f:
    fresh = json.load(f)

# Schema sanity on the fresh run (same invariants the CI smoke used to
# assert inline).
machine = fresh["machine"]
assert isinstance(machine["available_parallelism"], int) and machine["available_parallelism"] >= 1, machine
assert machine["turbo_runtime_threads"] is None or isinstance(machine["turbo_runtime_threads"], int), machine
assert isinstance(machine["timestamp_unix"], int) and machine["timestamp_unix"] > 0, machine
assert fresh["benches"], "no bench results recorded"
for b in fresh["benches"]:
    assert b["name"] and b["median_ns"] >= 0 and b["p95_ns"] >= 0, b

base = {b["name"]: b["median_ns"] for b in baseline["benches"]}
new = {b["name"]: b["median_ns"] for b in fresh["benches"]}

gated = sorted(n for n in base if n.startswith(GATED_PREFIXES))
for prefix in GATED_PREFIXES:
    assert any(n.startswith(prefix) for n in gated), \
        f"baseline has no rows under {prefix}"
covered = sorted(n for n in base if n.startswith(COVERAGE_PREFIXES))
missing = [n for n in covered if n not in new]
if missing:
    print(f"FAIL: baseline rows missing from fresh run: {missing}", file=sys.stderr)
    sys.exit(1)

smoke = bool(os.environ.get("TURBO_BENCH_SMOKE", ""))
if smoke:
    print(f"bench check (smoke): schema OK, all {len(covered)} gated/coverage rows present; "
          "median comparison skipped (1-iteration smoke medians are noise)")
    sys.exit(0)

threshold = float(os.environ["TURBO_BENCH_CHECK_THRESHOLD"])
failed = []
for name in gated:
    ratio = new[name] / base[name] if base[name] > 0 else 1.0
    verdict = "REGRESSED" if ratio > threshold else "ok"
    print(f"  {verdict:>9}  {name}: {base[name]:.1f} -> {new[name]:.1f} ns ({ratio:.2f}x)")
    if ratio > threshold:
        failed.append(name)
if failed:
    print(f"FAIL: {len(failed)} gated row(s) regressed more than "
          f"{(threshold - 1.0) * 100:.0f}% vs baseline: {failed}", file=sys.stderr)
    sys.exit(1)
print(f"bench check OK: {len(gated)} gated rows within {(threshold - 1.0) * 100:.0f}% of baseline")
EOF
