#!/usr/bin/env bash
# Local CI gate: everything a PR must pass, in the order it fails fastest.
#   ./ci.sh          full gate (build, tests, clippy -D warnings, fmt check,
#                    rustdoc -D warnings)
#   ./ci.sh quick    skip the release build (debug build + tests + lints)
set -euo pipefail
cd "$(dirname "$0")"

quick=${1:-}

echo "==> cargo build"
if [ "$quick" = "quick" ]; then
    cargo build --workspace --all-targets
else
    cargo build --workspace --all-targets --release
fi

# The parallel engine must behave identically at any thread count: run the
# suite once pinned to a single worker and once with a multi-thread pool.
echo "==> cargo test (AGING_THREADS=1)"
AGING_THREADS=1 cargo test --workspace --quiet

echo "==> cargo test (AGING_THREADS=4)"
AGING_THREADS=4 cargo test --workspace --quiet

# The two passes above already run every workspace suite at both thread
# settings, doc tests included: the spectrum streaming-vs-batch parity
# proptests, the chaos differential, the serve loopback and
# kill-and-recover differentials, the cluster parity differential, the
# rejuvenation decision-parity and golden suites, and the
# allocation-regression guard. Only the repro differentials below need
# their own step.

# The benchmark is a package of its own (not a workspace member), so the
# workspace passes never build it: check that it still compiles against
# the crates and that its helper tests pass.
echo "==> perfbench build + tests"
cargo test --offline --manifest-path perfbench/Cargo.toml --quiet

# The E17 differential: Δα(t) drifts upward on aging memsim runs and stays
# flat on healthy controls, with streaming-vs-batch parity checked inside
# the experiment at pool sizes 1 and 4 (crates/bench/src/experiments.rs).
# --no-trajectory keeps CI probe runs out of the committed BENCH histories.
echo "==> repro e17 differential (quick)"
if [ "$quick" = "quick" ]; then
    cargo run -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e17
else
    cargo run --release -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e17
fi

# The E18 differential: the full closed loop over both scenario families —
# alarm-driven rejuvenation must strictly beat fixed-interval restarts and
# no-op on availability, with the false-alarm and lead-time budgets held
# and kill-and-recover replaying byte-identical restart decisions.
echo "==> repro e18 differential (quick)"
if [ "$quick" = "quick" ]; then
    cargo run -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e18
else
    cargo run --release -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e18
fi

# The E19 micro-gate: each StreamingSpectrum emission must cost ≥2× less
# than the honest batch recompute, stay bit-identical to the batch trace
# at pool sizes 1 and 4, and drift ≤1e-9 relative from a from-scratch
# recompute of every window (crates/bench/src/experiments.rs).
echo "==> repro e19 kernel micro-gate (quick)"
if [ "$quick" = "quick" ]; then
    cargo run -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e19
else
    cargo run --release -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e19
fi

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check
cargo fmt --manifest-path perfbench/Cargo.toml -- --check

# Broken, private or ambiguous intra-doc links fail the gate, so removing a
# public item cannot leave a dangling link behind.
echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "CI gate passed."
