#!/usr/bin/env bash
# Builds the program and the benchmark from source, then runs the benchmark.
#
#   bash benchmark/run.sh                                   every workload (`all --seed 1`)
#   bash benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#   bash benchmark/run.sh all --seed 7 --out result.json
#   bash benchmark/run.sh compare a.json b.json
#   bash benchmark/run.sh --smoke
#
# Run from the repository root. Both builds go to $CARGO_TARGET_DIR
# (default: target), the benchmark's temp files and results under it.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -f benchmark/Cargo.toml ]]; then
    echo "benchmark/run.sh: run from the repository root (Cargo.toml and benchmark/Cargo.toml must exist)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

# The program as a user builds it (the traced run spawns the real
# craqr-scenario binary), then the benchmark package. Build chatter goes to
# stderr so the result line stays the last line of stdout.
cargo build --release --offline --quiet --manifest-path Cargo.toml -p craqr --bin craqr-scenario >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

if [[ $# -eq 0 ]]; then
    set -- all --seed 1
fi
exec "$CARGO_TARGET_DIR/release/craqr-benchmark" "$@"
