#!/usr/bin/env sh
# Local mirror of .github/workflows/ci.yml — run before pushing.
# Everything is offline: dependencies are vendored under shims/.
set -eu

export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors: no dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The benchmark is a package and workspace of its own, so none of the
# --workspace steps above compile it: build and self-check it explicitly,
# or an API change in xdr/oncrpc breaks it silently.
echo "==> benchmark package: harness unit tests + quick self-check (~11 s)"
cargo test --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -q
cargo run --release --quiet --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --quick

echo "==> chaos: deterministic fault matrix (failing seeds are named in the panic)"
cargo test --test chaos -q
cargo test --test proptest_stack -q -- lossy_fault any_fault
cargo test --test checkpoint_restart -q connection_reset_mid_checkpoint

echo "==> chaos: batch replay (dropped/reset CRICKET_BATCH_EXEC, full seed matrix)"
cargo test --test chaos -q batch
cargo test --test proptest_stack -q record_flush_interleavings

echo "==> bench smoke: smallop (self-asserts >=4x RPC reduction, <5% single-op regression)"
cargo run --release -p cricket-bench --bin smallop -- --launches 1024 --single-iters 128

echo "==> chaos: reactor equivalence (byte-identical reply traces vs the serial reference, churn soak)"
cargo test --test reactor -q

echo "==> bench smoke: connscale (reactor >=5x sessions vs serial, all progress; wall-clock ratio printed, not gated)"
cargo run --release -p cricket-bench --bin connscale -- --smoke

echo "==> fleet: portmap shard directory + registration lifecycle + seeded failover matrix"
cargo test --test fleet -q

echo "==> bench smoke: fleet (sharded aggregate throughput scaling, reduced size)"
cargo run --release -p cricket-bench --bin fleet -- --smoke

echo "==> migration: chaos matrix (byte-identical traces), crash-abort, 100-hop soak, concurrent load"
cargo test --test migration -q
cargo test --test proptest_stack -q streaming_deltas

echo "==> bench smoke: migrate (streamed resync <50% of naive bytes at <=25% dirty; leaves BENCH_migrate.json untouched)"
cargo run --release -p cricket-bench --bin migrate -- --smoke

echo "==> bench smoke: multitenant QoS (WFQ favoritism >=2x, weight shares within 10%, quota shedding)"
cargo run --release -p cricket-bench --bin multitenant -- --qos --smoke

echo "==> wire2: striping + sparse chaos matrix (exactly-once stripes, byte-identical reassembly)"
cargo test --test wire2 -q

echo "==> wire2: sparse codec round-trip properties (arbitrary payloads, corrupt blobs)"
cargo test -p cricket-oncrpc --test proptest_sparse -q

echo "==> wire2: fixed buffer policy, strictly (CricketV1Client over FixedBuf: zero heap allocations, construction included)"
cargo test -p cricket-proto --test no_alloc_strict -q

echo "==> bench smoke: fig7 (striping >=1.5x, sparse >=5x at 90% zeros, dense <=1.05x overhead)"
cargo run --release -p cricket-bench --bin fig7_bandwidth -- --smoke

echo "==> example smoke tests (async stream engine; nonzero exit fails CI)"
cargo run --release --example multi_tenant
cargo run --release --example fft_pipeline

echo "CI OK"
