#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green (see ROADMAP.md).
#
#   scripts/tier1.sh
#
# Runs the release build, every test suite of every workspace member, the
# end-to-end smokes below, and clippy with warnings denied, from the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace matters: the root manifest carries the tpa-scd facade
# package, so a bare `cargo build` covers only it and its deps — leaving
# ./target/release/scd and the bench binaries stale for the smoke steps
# below.
echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> shard round-trip smoke"
# Generate a small sharded dataset and the same rows as LIBSVM text, train
# both ways, and require the bit-identical `final gap` line: the storage
# invariant (shards == memory) checked end-to-end through the binary.
SHARD_DIR=$(mktemp -d)/shards
SHARD_SVM=$(mktemp)
./target/release/scd shard gen --out "$SHARD_DIR" --kind criteo --rows 120 \
  --fields 4 --cardinality 16 --seed 5 --chunk-rows 32 > /dev/null
./target/release/scd shard inspect --data "$SHARD_DIR" --verify yes > /dev/null
./target/release/scd generate --kind criteo --rows 120 --fields 4 \
  --cardinality 16 --seed 5 --output "$SHARD_SVM" > /dev/null
gap_store=$(./target/release/scd train --data "$SHARD_DIR" --form dual \
  --workers 2 --epochs 1 --eval-every 1 | grep '^final gap')
gap_mem=$(./target/release/scd train --data "$SHARD_SVM" --features 64 \
  --form dual --workers 2 --partition contiguous --epochs 1 --eval-every 1 \
  | grep '^final gap')
if [[ "$gap_store" != "$gap_mem" ]]; then
  echo "tier1.sh: shard training diverged from in-memory:" >&2
  echo "  store:  $gap_store" >&2
  echo "  memory: $gap_mem" >&2
  exit 1
fi
rm -rf "$(dirname "$SHARD_DIR")" "$SHARD_SVM"

echo "==> bench_store --smoke"
BENCH_OUT=$(mktemp) ./target/release/bench_store --smoke

echo "==> bench_cpu --smoke"
# Smoke-run the CPU-backend benchmark so a perf-harness regression cannot
# land silently; BENCH_OUT keeps it from clobbering the committed record.
BENCH_OUT=$(mktemp) ./target/release/bench_cpu --smoke

echo "==> bench_serve --smoke"
BENCH_OUT=$(mktemp) ./target/release/bench_serve --smoke

echo "==> bench_alloc --smoke (alloc-count)"
# Build the allocation-audit binary with the counting allocator and
# smoke-run it, then assert the steady-state zero-allocation contracts.
# The counters are process-global, so the test binary runs single-threaded.
cargo build -q --release -p scd-bench --features alloc-count --bin bench_alloc
BENCH_OUT=$(mktemp) ./target/release/bench_alloc --smoke
cargo test -q --release -p scd-bench --features alloc-count \
  --test alloc_steady_state -- --test-threads=1

echo "==> serve smoke"
# Train one epoch, batch-score five rows, and answer one JSON-lines serve
# request: the whole serving surface exercised end-to-end through the
# binary, with every output line required to be parseable JSON.
SERVE_DATA=$(mktemp)
SERVE_MODEL=$(mktemp)
./target/release/scd generate --kind webspam --rows 80 --cols 40 \
  --nnz-per-row 5 --scale 0.3 --output "$SERVE_DATA" > /dev/null
./target/release/scd train --data "$SERVE_DATA" --features 40 --epochs 1 \
  --eval-every 1 --save-model "$SERVE_MODEL" > /dev/null
score_out=$(./target/release/scd score --model "$SERVE_MODEL" \
  --data "$SERVE_DATA" --limit 5)
if [[ $(echo "$score_out" | wc -l) -ne 6 ]]; then
  echo "tier1.sh: scd score --limit 5 must print 5 rows + summary:" >&2
  echo "$score_out" >&2
  exit 1
fi
echo "$score_out" | python3 -c 'import json,sys
for line in sys.stdin: json.loads(line)' || {
  echo "tier1.sh: scd score output is not JSON-lines" >&2; exit 1; }
serve_out=$(printf '{"op":"info"}\n' | \
  ./target/release/scd serve --model "$SERVE_MODEL" 2> /dev/null)
echo "$serve_out" | python3 -c 'import json,sys
resp = json.loads(sys.stdin.readline())
assert resp["ok"] and resp["model_seq"] == 1, resp' || {
  echo "tier1.sh: scd serve info round-trip failed: $serve_out" >&2; exit 1; }
rm -f "$SERVE_DATA" "$SERVE_MODEL"

echo "==> objective smoke matrix"
# One epoch of every objective on every engine class: catches an
# objective x backend pairing that compiles but panics at dispatch.
OBJ_DATA=$(mktemp)
./target/release/scd generate --kind criteo --rows 120 --fields 4 \
  --cardinality 16 --output "$OBJ_DATA" > /dev/null
for obj in ridge logistic svm lasso elastic-net; do
  for backend in seq syscd tpa-m4000; do
    echo "    scd train --objective $obj --backend $backend"
    ./target/release/scd train --data "$OBJ_DATA" --features 64 \
      --objective "$obj" --backend "$backend" --epochs 1 --eval-every 1 \
      > /dev/null
  done
done
rm -f "$OBJ_DATA"

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> tier-1 green"
