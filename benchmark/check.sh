#!/bin/sh
# Format, lint, test and smoke-run the detached benchmark package. Not wired
# into CI yet; run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-target}"

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --target-dir "$target" --all-targets -- -D warnings
cargo test --offline --release --manifest-path "$manifest" --target-dir "$target"
cargo run --offline --release --quiet --manifest-path "$manifest" --target-dir "$target" -- \
    run --scale smoke --seconds 0.2 --trace 1
