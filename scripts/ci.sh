#!/usr/bin/env bash
# Local CI gate: build, test, lint. Run from anywhere; operates on the
# workspace root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> rustdoc with warnings denied (dangling intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> runtime tests under a 2-worker cap (contention path)"
TURBO_RUNTIME_THREADS=2 cargo test -q -p turbo-runtime

echo "==> runtime and pipeline tests on a caller-only pool (1 executor, no spawned thread)"
# With one executor the submitting thread runs every task itself, so
# every nested batch, scope and pipeline edge must complete without a
# second thread.
TURBO_RUNTIME_THREADS=1 cargo test -q -p turbo-runtime
TURBO_RUNTIME_THREADS=1 cargo test -q -p turbo-attention multilayer
TURBO_RUNTIME_THREADS=1 cargo test -q -p turbo-integration-tests --test crash_consistency pipelined

echo "==> kernel tests in release (intrinsics arms, the BPQ stage-2 kernels and the CRC32 fold at the benchmark's optimisation level)"
cargo test --release -q -p turbo-tensor -p turbo-attention -p turbo-quant -p turbo-kvcache \
  -p turbo-robust

echo "==> kernel tests with SIMD force-disabled (scalar-fallback coverage)"
# The equivalence tests pin every arm the machine has in-process (on
# x86: the scalar, AVX2 and, where the CPU has it, AVX-VNNI arms of the
# packed GEMM; both arms of the BPQ stage-2 compress), but the
# dispatched *call sites* (quant and decode-buffer encode, the stage-2
# compress of prefill blocks, buffer flushes and WAL replay, the packs,
# SAS rows, attention sweeps, tile builds) only exercise the scalar
# fallback when detection says so — force it. `-p turbo-quant` runs the
# stage-2 compress on its scalar arm directly, `-p turbo-kvcache` through
# the prefill write, the flush and recovery, and `-p turbo-robust` runs
# `crc32` on its table arm alone.
TURBO_SIMD=0 cargo test -q -p turbo-tensor -p turbo-softmax -p turbo-quant -p turbo-attention \
  -p turbo-kvcache -p turbo-robust

echo "==> chaos smoke (64 seeded episodes, 2 replicas)"
TURBO_CHAOS_EPISODES=64 cargo test -q -p turbo-integration-tests --test chaos_soak

echo "==> fleet smoke (16 seeded control-plane episodes, bounded SLO recovery)"
TURBO_FLEET_EPISODES=16 cargo test -q -p turbo-integration-tests --test fleet_soak

echo "==> layer-WAL smoke (group-commit crash points + chaos)"
cargo test -q -p turbo-integration-tests --test crash_consistency layer_wal

echo "==> layer-pipeline smoke (2-worker bit-identity, scalar kernels, crash cuts)"
# The pipelined engines' worker-count sweeps run in the plain suite on
# the detected core count; this stage pins the interesting corner — a
# 2-worker pool (real overlap, minimal parallelism) with SIMD forced
# off, covering the multilayer engine and the mid-pipeline crash-cut
# replay on the scalar arm.
TURBO_RUNTIME_THREADS=2 TURBO_SIMD=0 cargo test -q -p turbo-attention multilayer
TURBO_RUNTIME_THREADS=2 TURBO_SIMD=0 \
  cargo test -q -p turbo-integration-tests --test crash_consistency pipelined

echo "==> continuous-batching scheduler smoke (budget invariants + chaos)"
cargo test -q -p turbo-integration-tests --test continuous_batching

echo "==> sharded-serving smoke (crash-cut re-sharding, 16k-token acceptance episode)"
# The full 128k-token acceptance episode runs in the plain test suite;
# the smoke bounds the context and the soak so this stage stays fast.
TURBO_SHARD_TOKENS=16384 TURBO_RESHARD_EPISODES=8 \
  cargo test -q -p turbo-integration-tests --test resharding

echo "==> examples smoke (prefix_cache_server and chat_serving bit-identity lines, the four drills)"
# prefix_cache_server reloads a persisted GQA prefix and decodes each
# query group in one pass; both of its bit-identity lines must say true.
pcs=$(cargo run --release -q -p turbo-examples --bin prefix_cache_server)
echo "$pcs"
for line in "bit-identical to the original: true" "bit-identical to per-head decode: true"; do
  grep -qF "$line" <<<"$pcs" || { echo "prefix_cache_server did not print: $line"; exit 1; }
done
# chat_serving checks its pooled layer decode against per-head decode.
chat=$(cargo run --release -q -p turbo-examples --bin chat_serving)
echo "$chat"
line="layer decode bit-identical to per-head decode: true"
grep -qF "$line" <<<"$chat" || { echo "chat_serving did not print: $line"; exit 1; }
# Each drill asserts its exactly-once ledger and its determinism (or
# no-fault-twin content CRC) internally, so a zero exit is the check.
for drill in chaos_drill shard_drill fleet_drill fault_drill; do
  cargo run --release -q -p turbo-examples --bin "$drill"
done

echo "==> end-to-end benchmark smoke (every perfbench workload at smoke size)"
# decode_long_gqa's smoke shape (4 query heads on 1 KV head) drives the
# grouped GQA decode path end to end, with its rel_err and recovery
# checks; the tests also check BENCHMARK.json against the metric names.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> bench regression check (smoke: schema + gated-row coverage vs BENCH_attention.json)"
# Full-measurement median gating (>25% decode/prefill regression fails)
# runs via `scripts/bench.sh --check` without TURBO_BENCH_SMOKE; under
# smoke the check validates schema and that every baseline decode and
# prefill row still exists and parses.
TURBO_BENCH_SMOKE=1 scripts/bench.sh --check

echo "==> CI green"
