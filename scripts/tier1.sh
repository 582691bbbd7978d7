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
# ./target/release/scd stale for the smoke steps below.
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

echo "==> host-threads bit-identity smoke"
# The gap products and the CSR->CSC transpose are split across the
# --host-threads pool; every printed number must be the same at any width.
# The syscd run reads a shard directory; the K=2 primal run reads the
# LIBSVM twin, because store-backed training partitions by example only.
HT_DIR=$(mktemp -d)
./target/release/scd shard gen --out "$HT_DIR/shards" --kind webspam --rows 300 \
  --cols 200 --nnz-per-row 12 --seed 3 --chunk-rows 64 > /dev/null
./target/release/scd generate --kind webspam --rows 300 --cols 200 \
  --nnz-per-row 12 --seed 3 --output "$HT_DIR/data.svm" > /dev/null
for h in 1 3; do
  ./target/release/scd train --data "$HT_DIR/shards" --form dual --backend syscd \
    --threads 2 --host-threads "$h" --epochs 3 --eval-every 1 \
    | grep '^final gap' > "$HT_DIR/syscd.$h"
  ./target/release/scd train --data "$HT_DIR/data.svm" --features 200 --form primal \
    --workers 2 --host-threads "$h" --epochs 3 --eval-every 1 \
    | grep '^final gap' > "$HT_DIR/primal.$h"
done
for run in syscd primal; do
  if ! cmp -s "$HT_DIR/$run.1" "$HT_DIR/$run.3"; then
    echo "tier1.sh: $run final gap differs between --host-threads 1 and 3:" >&2
    cat "$HT_DIR/$run.1" "$HT_DIR/$run.3" >&2
    exit 1
  fi
done
rm -rf "$HT_DIR"

echo "==> alloc_steady_state (alloc-count)"
# Assert the steady-state zero-allocation contracts under the counting
# allocator. The counters are process-global, so the test binary runs
# single-threaded.
cargo test -q --release -p scd-bench --features alloc-count \
  --test alloc_steady_state -- --test-threads=1

echo "==> concurrency suites under load"
# Some schedules never happen on an idle host: a seqlock reader starved by
# the writer, a scheduler worker's first task landing mid-run. Run each
# concurrency-sensitive suite three times, optimised (a debug build is too
# slow to starve anyone), beside two busy loops of our own, which the trap
# stops on every exit path. `timeout` signals the whole process group, so
# a hung test binary dies with its cargo.
LOAD_PIDS=()
stop_load() {
  if ((${#LOAD_PIDS[@]})); then
    kill "${LOAD_PIDS[@]}" 2> /dev/null || true
    wait "${LOAD_PIDS[@]}" 2> /dev/null || true
    LOAD_PIDS=()
  fi
}
trap stop_load EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
for _ in 1 2; do
  (while :; do :; done) &
  LOAD_PIDS+=($!)
done
under_load() {
  for run in 1 2 3; do
    echo "    [$run/3] cargo test --release $*"
    timeout 600 cargo test -q --release "$@"
  done
}
under_load -p scd-serve --test slot_props
under_load -p scd-sched --test sched_props
under_load -p scd-bench --features alloc-count \
  --test alloc_steady_state -- --test-threads=1
under_load -p scd-distributed --test async_event
under_load -p scd-distributed --test runtime_fault
under_load -p scd-core --test products_identity
stop_load

echo "==> serve smoke"
# Train one epoch, batch-score five rows of a LIBSVM file and of a shard
# directory (the two kinds of --data), and answer one JSON-lines serve
# request: the whole serving surface exercised end-to-end through the
# binary, with every output line required to be parseable JSON.
SERVE_DATA=$(mktemp)
SERVE_MODEL=$(mktemp)
SERVE_SHARDS=$(mktemp -d)
./target/release/scd generate --kind webspam --rows 80 --cols 40 \
  --nnz-per-row 5 --scale 0.3 --output "$SERVE_DATA" > /dev/null
./target/release/scd shard gen --out "$SERVE_SHARDS/shards" --kind webspam \
  --rows 80 --cols 40 --nnz-per-row 5 --chunk-rows 32 > /dev/null
./target/release/scd train --data "$SERVE_DATA" --features 40 --epochs 1 \
  --eval-every 1 --save-model "$SERVE_MODEL" > /dev/null
for data in "$SERVE_DATA" "$SERVE_SHARDS/shards"; do
  score_out=$(./target/release/scd score --model "$SERVE_MODEL" \
    --data "$data" --limit 5)
  if [[ $(echo "$score_out" | wc -l) -ne 6 ]]; then
    echo "tier1.sh: scd score --limit 5 on $data must print 5 rows + summary:" >&2
    echo "$score_out" >&2
    exit 1
  fi
  echo "$score_out" | python3 -c 'import json,sys
for line in sys.stdin: json.loads(line)' || {
    echo "tier1.sh: scd score output on $data is not JSON-lines" >&2; exit 1; }
done
serve_out=$(printf '{"op":"info"}\n' | \
  ./target/release/scd serve --model "$SERVE_MODEL" 2> /dev/null)
echo "$serve_out" | python3 -c 'import json,sys
resp = json.loads(sys.stdin.readline())
assert resp["ok"] and resp["model_seq"] == 1, resp' || {
  echo "tier1.sh: scd serve info round-trip failed: $serve_out" >&2; exit 1; }
rm -rf "$SERVE_DATA" "$SERVE_MODEL" "$SERVE_SHARDS"

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

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1 green"
