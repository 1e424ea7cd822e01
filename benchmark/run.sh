#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (release,
# offline) and runs it; every argument is passed through:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke]
#
# Run from the root of the repository. The last line of standard output is
# the JSON object with `correct`, `attempted`, `failed` and `metrics`.
set -euo pipefail

manifest=benchmark/Cargo.toml
if [[ ! -f $manifest || ! -d crates ]]; then
    echo "benchmark/run.sh: run it from the root of a checkout that holds crates/ and benchmark/" >&2
    exit 2
fi
# cargo resolves a relative CARGO_TARGET_DIR against the working directory
target=${CARGO_TARGET_DIR:-benchmark/target}
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet --manifest-path "$manifest" >&2
exec "$target/release/re2x-benchmark" "$@"
