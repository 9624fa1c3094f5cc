#!/usr/bin/env bash
# Smoke for a CI job: offline build with the committed lock file, the
# benchmark's unit tests, then a --quick pass (2 segments per workload)
# that still runs every correctness check, untraced and traced.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo test --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target"
"$here/run.sh" --quick
"$here/run.sh" --quick --trace 1
