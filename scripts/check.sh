#!/usr/bin/env bash
# Pre-merge gate: every PR must pass this locally before review.
#
#   scripts/check.sh          # fmt check + clippy (deny warnings) + tests
#
# The vendored stand-ins under vendor/ are excluded from the workspace, so
# fmt/clippy/test all target the reproduction code only.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The storage crate carries the ExtentBackend trait surface every later PR
# plugs into; lint it separately so a workspace-level allow can never mask
# drift on the API seam.
echo "==> cargo clippy -p bg3-storage (trait surface lint gate)"
cargo clippy -p bg3-storage --all-targets -- -D warnings

# The vectorized read path spans the graph-store batching seam
# (NeighborSink / neighbors_batch) and the morsel-driven executor; lint
# both crates separately for the same reason.
echo "==> cargo clippy -p bg3-graph -p bg3-query (read path lint gate)"
cargo clippy -p bg3-graph -p bg3-query --all-targets -- -D warnings

# The obs crate carries the span/ledger plane every engine layer charges
# into; lint it separately so the attribution seam can never drift behind
# a workspace-level allow.
echo "==> cargo clippy -p bg3-obs (span/ledger lint gate)"
cargo clippy -p bg3-obs --all-targets -- -D warnings

# The leader protocol (bg3_sync::Leader) is the one WAL / group-commit /
# recovery core both RwNode and Bg3Db run on; lint the two crates on either
# side of that seam separately as well.
echo "==> cargo clippy -p bg3-sync -p bg3-core (leader seam lint gate)"
cargo clippy -p bg3-sync -p bg3-core --all-targets -- -D warnings

echo "==> cargo test --workspace (tier-1)"
cargo test --workspace --quiet

echo "==> concurrent stress test (RUSTFLAGS=-D warnings)"
RUSTFLAGS="-D warnings" cargo test --quiet --test chaos_recovery \
    striped_forest_survives_concurrent_put_get_split_out

echo "==> replication divergence proptest (RUSTFLAGS=-D warnings)"
RUSTFLAGS="-D warnings" cargo test --quiet --test replication_consistency \
    follower_never_diverges_under_read_faults_and_dropped_publishes

echo "==> frame codec proptests (round-trip + single-bit-flip detection)"
RUSTFLAGS="-D warnings" cargo test --quiet -p bg3-storage --test frame_properties

echo "==> backend conformance suite (SimBackend + FileBackend + FaultBackend(file), tempdir)"
RUSTFLAGS="-D warnings" cargo test --quiet -p bg3-storage --test backend_conformance

echo "==> cache_scaling smoke (~5s)"
cargo run --release --quiet -p bg3-bench --bin reproduce -- cache_scaling --scale quick --threads 2

echo "==> failover smoke (5 kill/promote/zombie cycles) + metrics drift gate"
cargo run --release --quiet -p bg3-bench --bin reproduce -- failover --cycles 5 \
    --metrics-json target/metrics-smoke.json
cargo run --release --quiet -p bg3-bench --bin metrics_check -- target/metrics-smoke.json

echo "==> scrub smoke (bit rot + torn writes + crash cycles) + metrics drift gate"
cargo run --release --quiet -p bg3-bench --bin reproduce -- scrub --cycles 2 \
    --metrics-json target/metrics-scrub-smoke.json
cargo run --release --quiet -p bg3-bench --bin metrics_check -- target/metrics-scrub-smoke.json

echo "==> disk smoke (file backend: kill+recover, on-disk bit-flip scrub; tempdir)"
cargo run --release --quiet -p bg3-bench --bin reproduce -- disk_smoke --scale quick

echo "==> disk chaos smoke (errno storms, fsyncgate, ENOSPC degradation) + metrics drift gate"
cargo run --release --quiet -p bg3-bench --bin reproduce -- disk_chaos --scale quick \
    --metrics-json target/metrics-disk-chaos-smoke.json
cargo run --release --quiet -p bg3-bench --bin metrics_check -- target/metrics-disk-chaos-smoke.json

echo "==> batched-vs-scalar executor equivalence proptest"
RUSTFLAGS="-D warnings" cargo test --quiet -p bg3-query --test query_equivalence

echo "==> khop smoke (batched vs per-vertex frontier sweep)"
cargo run --release --quiet -p bg3-bench --bin reproduce -- khop --scale quick

echo "==> admission conservation + bounded-queue proptests"
RUSTFLAGS="-D warnings" cargo test --quiet --test admission_properties

echo "==> overload smoke (0.5x-2x saturation sweep) + metrics drift gate"
cargo run --release --quiet -p bg3-bench --bin reproduce -- overload --scale quick \
    --metrics-json target/metrics-overload-smoke.json
cargo run --release --quiet -p bg3-bench --bin metrics_check -- target/metrics-overload-smoke.json

echo "==> profile smoke (attribution conservation on the Table-1 mixes) + metrics drift gate"
cargo run --release --quiet -p bg3-bench --bin reproduce -- profile --scale quick \
    --metrics-json target/metrics-profile-smoke.json
cargo run --release --quiet -p bg3-bench --bin metrics_check -- target/metrics-profile-smoke.json

echo "==> span overhead bench (profiled-over-plain ratio bound asserted)"
cargo bench --quiet -p bg3-bench --bench span_overhead

# perfbench is a workspace of its own that builds against the engine crates
# by path: building and testing it here turns an engine API change that
# breaks the benchmark into a pre-merge failure.
echo "==> perfbench build + tests (own workspace, release)"
CARGO_TARGET_DIR=target/perfbench cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> all checks passed"
