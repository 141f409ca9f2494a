#!/usr/bin/env bash
# Repo verification gate: release build, every workspace test, the lint
# wall over every target (libraries, binaries, tests, examples), and the
# benchmark crate's own tests (bench/ is a separate cargo workspace, so
# a crate API change that breaks it fails here, not in a benchmark run).
#
#   $ scripts/verify.sh
#
# Fails fast on the first broken stage. The every-cycle vs skip-ahead
# equivalence over the whole experiment matrix runs inside the test
# suite (tests/skip_ahead_equivalence.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite (every workspace crate) =="
cargo test --workspace -q

echo "== lint: clippy, every target (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== bench: benchmark crate tests =="
cargo test --release -q --offline --manifest-path bench/Cargo.toml

echo "== verify: all stages passed =="
