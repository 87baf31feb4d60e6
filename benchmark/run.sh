#!/usr/bin/env bash
# Builds the benchmark (release profile) and runs it with the given
# arguments; see README.md. Run from anywhere: cargo resolves a relative
# CARGO_TARGET_DIR against the caller's directory, as the driver expects.
set -euo pipefail
exec cargo run --release --quiet --offline \
    --manifest-path "$(dirname "${BASH_SOURCE[0]}")/Cargo.toml" -- "$@"
