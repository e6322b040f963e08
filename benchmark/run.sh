#!/usr/bin/env bash
# The repo benchmark: builds the release daemon and the harness from
# source, then hands every argument to the harness.
#
#   one run (what the driver calls; the last stdout line is its JSON):
#     benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   every workload with its noise floor:
#     benchmark/run.sh [--seed N] [--reps N] [--trace] [--smoke]
#   judge one suite report against another:
#     benchmark/run.sh --compare A.json B.json
#
# Reads and writes only inside the checkout: build output under
# $CARGO_TARGET_DIR (default target/), run output under benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Two hardware threads on the reference host; pinned so a bigger host
# measures the same configuration.
export RAYON_NUM_THREADS=2

# Build output goes to stderr: stdout carries only the harness's report.
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin parulel 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$CARGO_TARGET_DIR/release/parulel-benchmark" \
  --daemon "$CARGO_TARGET_DIR/release/parulel" --out benchmark/out "$@"
