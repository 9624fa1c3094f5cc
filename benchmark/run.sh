#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark package (offline,
# using the committed Cargo.lock) and hands every argument to it:
#
#   benchmark/run.sh [--seed N]                 every workload, results.json
#   benchmark/run.sh --trace 1                  the traced run: per-layer numbers
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --aa [--sets 2 --runs 3]   same code twice, against the bounds
#   benchmark/run.sh --compare A.json B.json    two result files, row by row
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
export APRAM_BENCH_OUT="${APRAM_BENCH_OUT:-$here/out}"
exec "$target/release/apram-benchmark" "$@"
