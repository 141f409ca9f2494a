#!/usr/bin/env bash
# Repo verification gate: release build, every workspace test, and the
# lint wall.
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

echo "== lint: clippy (deny warnings) =="
cargo clippy --workspace -- -D warnings

echo "== verify: all stages passed =="
