#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash kbench/run.sh --workload fig5-net15 --seed 1 --seconds 15 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in /*) ;; *) target=$root/$target ;; esac
mkdir -p "$target"

export GOCACHE=$target/go-cache
export GOPATH=$target/go-path
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off

go build -C "$root/kbench" -o "$target/kbench" .
exec "$target/kbench" --out "$target/kbench-out" "$@"
