#!/usr/bin/env bash
# Local CI: formatting, lints, release build, full test suite.
# Run from the repository root. Any failure aborts the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release --locked"
cargo build --release --locked

echo "==> cargo test -q"
cargo test -q

echo "==> paper golden gate, paper-scale points (release)"
cargo test -q --release -p pasm --test paper_golden -- --ignored

echo "==> SIMD group step vs interpreter, 20 000 seeded random programs (release)"
cargo test -q --release -p pasm-machine random_simd_programs_match_the_interpreter_20k_seeds -- --ignored

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> breakdown smoke-run (n=4 cycle-accounting signatures)"
cargo run --release -q -p bench --bin breakdown -- --quick >/dev/null

echo "==> faultsweep smoke-run (4-PE single-fault theorem, all 14 faults)"
cargo run --release -q -p bench --bin faultsweep -- --quick >/dev/null

echo "==> kernelsweep smoke-run (per-kernel mode placement, p=4)"
cargo run --release -q -p bench --bin kernelsweep -- --quick >/dev/null

echo "==> blockbench smoke-run (fast path byte-identical to interpreter)"
cargo run --release -q -p bench --bin blockbench -- --quick >/dev/null

echo "==> examples (each asserts its own results)"
for ex in quickstart mode_tradeoff fault_tolerance image_smoothing partitioning kernels; do
    cargo run --release -q -p pasm --example "$ex" >/dev/null
done

echo "==> CLI smoke-runs (pasm-run programs and S/MIMD matmul, pasm-serve --help)"
cargo run --release -q -p pasm --bin pasm-run -- examples/programs/sum.s --stats >/dev/null
cargo run --release -q -p pasm --bin pasm-run -- examples/programs/mulu_timing.s --stats >/dev/null
cargo run --release -q -p pasm --bin pasm-run -- --mode smimd --n 16 --p 4 | grep "output correct" >/dev/null
cargo run --release -q -p pasm-server --bin pasm-serve -- --help >/dev/null

echo "==> fast-path equivalence tests (kernels x modes x fault plans)"
cargo test -q -p pasm --test integration_fastpath

echo "==> kernel registry integration tests (all kernels x modes x p)"
cargo test -q -p pasm --test integration_kernels --test integration_determinism

echo "==> worker panic quarantine + cancel-while-running integration test"
cargo test -q -p pasm-server --test integration_server_faults

echo "==> crash-injection recovery tests (seeded kill points, bit flips, readiness)"
cargo test -q -p pasm-server --test integration_recovery

echo "==> durabench smoke-run (fsync policies + restart-serves-cached gate)"
cargo run --release -q -p bench --bin durabench -- --quick >/dev/null

echo "==> query-tier tests (byte-identical spans, zero re-simulation, crash recovery)"
cargo test -q -p pasm-server --test integration_query

echo "==> querybench smoke-run (cold/warm query latency + span-store recovery gate)"
cargo run --release -q -p bench --bin querybench -- --quick >/dev/null

echo "==> pasmbench tests (benchmark gate tests + tiny smoke run of each workload)"
cargo test -q --manifest-path pasmbench/Cargo.toml

echo "==> ci.sh: all green"
