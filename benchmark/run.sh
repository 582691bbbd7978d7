#!/usr/bin/env bash
# Build the release `scd` binary and the benchmark harness, then run the
# harness. All arguments go to the harness (see README.md, or --help):
#
#   benchmark/run.sh                       every workload, end-to-end then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke               ~1% sizes, all checks, a few seconds
#   benchmark/run.sh --check-repeat        two end-to-end sets must agree within bounds
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")

# One target directory for both builds. A relative CARGO_TARGET_DIR (the
# driver sets `.bench_build`) is taken from the repository root.
target=${CARGO_TARGET_DIR:-target}
[[ $target = /* ]] || target="$root/$target"
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p scd-cli --bin scd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

cd "$root"
exec "$target/release/scd-benchmark" --scd "$target/release/scd" --out "$here/out" "$@"
