#!/usr/bin/env bash
# Builds the harness and the repo's real cluster_worker, then runs the
# benchmark. With `--workload W --seed N --seconds S --trace 0|1` it runs one
# workload and prints the result object as the last line of stdout; without
# `--workload` it runs all six (see README.md for --traced, --smoke, --sets
# and --compare).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The knobs change how the program executes; the benchmark pins every one of
# them explicitly, so none may leak in from the caller's environment.
for var in $(compgen -e); do
  case "$var" in PREDICT_*) unset "$var" ;; esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
  -p predict_benchmark -p predict_cluster --bin harness --bin cluster_worker >&2

case "$CARGO_TARGET_DIR" in
  /*) bin_dir="$CARGO_TARGET_DIR/release" ;;
  *) bin_dir="$PWD/$CARGO_TARGET_DIR/release" ;;
esac
export PREDICT_CLUSTER_WORKER="$bin_dir/cluster_worker"
exec "$bin_dir/harness" "$@"
