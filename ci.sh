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

# aging-store holds the journal and the one frame layout the wire shares;
# its docs and DESIGN.md promise it depends on nothing but std.
echo "==> aging-store has no dependencies"
store_tree=$(cargo tree --offline -p aging-store -e normal --prefix none)
if printf '%s\n' "$store_tree" | grep -qv '^aging-store '; then
    printf 'aging-store must depend on nothing:\n%s\n' "$store_tree"
    exit 1
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
# kill-and-recover differentials, the serve read-side query promises
# (crates/serve/tests/query_read_side.rs), the status reply at protocol
# v1, v2 and v3 (crates/serve/tests/status_versions.rs), the cluster
# parity differential, the rejuvenation decision-parity and golden
# suites, the JSON fixtures and the from_str totality proptest
# (crates/bench/tests/json_fixtures.rs, json_props.rs), the simulator's
# pinned output per scenario family (crates/memsim/tests/sim_fixtures.rs),
# and the allocation guards (crates/stream/tests/alloc_regression.rs, the
# journal's crates/store/tests/append_alloc.rs, the status JSON's and
# binary status frame's crates/serve/tests/json_alloc.rs and the
# simulator step's crates/memsim/tests/step_alloc.rs). Only the repro
# differentials below need their own step.

# The benchmark is a package of its own (not a workspace member), so the
# workspace passes never build it: check that it still compiles against
# the crates and that its helper tests pass. --locked fails the step when a
# manifest edit would rewrite perfbench/Cargo.lock, a benchmark file.
echo "==> perfbench build + tests"
cargo test --offline --locked --manifest-path perfbench/Cargo.toml --quiet

# The E14 and E15 wire differentials: a real loopback server's alarm
# history must be byte-identical to the offline supervisor's (E14), and a
# memory-only run, a journaled run and a server rebuilt from that
# journal after a graceful shutdown must agree byte for byte, with the
# journal costing < 20 % of throughput (E15).
echo "==> repro e14 e15 wire and journal differentials (quick)"
if [ "$quick" = "quick" ]; then
    cargo run -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e14 e15
else
    cargo run --release -p aging-bench --bin repro -- --quick --no-csv --no-trajectory e14 e15
fi

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

# E1–E9 are pinned to their committed outputs: a quick run must reproduce
# each CSV in bench_results/ byte for byte. e3_dimension_trace.csv holds
# the full-precision dimension and mean-Hölder traces of `analyze`, and
# the e2_*_bytes.csv files the full-precision batch `holder_trace`, so
# this also pins both traces. repro writes ./bench_results under its
# working directory, so it runs from a temporary directory.
echo "==> repro e1 e2 e3 e4 e5 e6 e7 e8 e9 CSVs match bench_results/ (quick)"
csv_dir=$(mktemp -d)
trap 'rm -rf "$csv_dir"' EXIT
repo_dir=$PWD
release=--release
if [ "$quick" = "quick" ]; then
    release=
fi
(cd "$csv_dir" && cargo run $release --manifest-path "$repo_dir/Cargo.toml" -p aging-bench \
    --bin repro -- --quick --no-trajectory e1 e2 e3 e4 e5 e6 e7 e8 e9 > /dev/null)
for csv in e1_machine-a-nt4-101 e1_machine-b-w2k-202 e1_summary \
    e2_machine-a-nt4-101_available_bytes e2_machine-a-nt4-101_used_swap_bytes \
    e2_machine-b-w2k-202_available_bytes e2_machine-b-w2k-202_used_swap_bytes e2_summary \
    e3_alarms e3_dimension_trace e4_available_bytes e4_used_swap_bytes \
    e5_cascade_tau e5_hurst e5_weierstrass e6_progression \
    e7_policies e8_ablation e9_confirm_windows e9_holder_drop e9_jump_delta; do
    cmp "$csv_dir/bench_results/$csv.csv" "bench_results/$csv.csv"
done

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
