#!/usr/bin/env bash
# Local CI gate. Runs everything a PR must pass, in cheap-to-expensive
# order: formatting, the clippy wall (default and no-default-features),
# the repo's own lint driver, the tier-1 build and test suite, the
# figures determinism gate (parallel run byte-identical to serial), and
# the hard perf ratchet (fresh throughput vs committed BENCH_history.jsonl).
# Fails fast on the first broken step and prints a per-step timing
# summary at the end.
#
# Usage: ci/check.sh [--quick]
#   --quick   skip the release build and the figures gate; run the debug
#             test suite only. For fast local iteration — the full gate
#             still runs in CI.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        *) echo "unknown argument: $arg (usage: ci/check.sh [--quick])" >&2; exit 2 ;;
    esac
done

STEP_NAMES=()
STEP_SECS=()
CURRENT_STEP=""
STEP_T0=0

finish_step() {
    if [[ -n "$CURRENT_STEP" ]]; then
        STEP_NAMES+=("$CURRENT_STEP")
        STEP_SECS+=($(( SECONDS - STEP_T0 )))
    fi
}

step() {
    finish_step
    CURRENT_STEP="$*"
    STEP_T0=$SECONDS
    printf '\n==> %s\n' "$*"
}

summary() {
    finish_step
    printf '\n==> timing summary\n'
    local i
    for i in "${!STEP_NAMES[@]}"; do
        printf '  %4ds  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
    done
}

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo clippy --workspace --no-default-features -- -D warnings"
cargo clippy --workspace --all-targets --no-default-features -- -D warnings

step "anu-xtask check (determinism, soundness, panic policy, doc coverage)"
cargo run -q -p anu-xtask -- check

step "anu-xtask waivers (every lint exception justified and still live)"
cargo run -q -p anu-xtask -- waivers

step "anu-xtask ratchet (per-lint counts vs committed lint-baseline.json)"
cargo run -q -p anu-xtask -- ratchet

step "anu-xtask deps (Cargo.lock contains only workspace members)"
cargo run -q -p anu-xtask -- deps

if [[ "$QUICK" == 1 ]]; then
    step "tier-1: cargo test (debug, --quick)"
    cargo test -q

    step "chaos smoke: fifty seeded fault storms through the world"
    # Named separately so a chaos regression is visible as its own step:
    # fault scripts validate, the invariant auditor stays silent, no
    # request is lost, tuning resumes after delegate crashes.
    cargo test -q --test chaos_storms

    step "storm smoke: sixty elasticity storms (autoscaler + shed + churn)"
    # Every storm kind x intensity x seed: the auditor stays silent at
    # every membership boundary, requests are conserved (completed +
    # shed), fairness scoring stays sane, and the pool actually scales.
    cargo test -q --test storm_robustness

    step "multi-world smoke: partitioned worlds aggregate and stay deterministic"
    cargo test -q -p anu-harness --test multi_world

    step "meanfield smoke: analytic oracle solver + harness cross-validation units"
    # The fixed-point solver's property tests and the harness-side cell /
    # rows / gate units. The full simulate-vs-predict divergence gate
    # needs the release sweep and runs in the figures gate below.
    cargo test -q -p anu-analytic
    cargo test -q -p anu-harness --lib meanfield

    step "anu-inspect smoke: CLI reconstructs spans and passes --check"
    # A tiny handcrafted request-level trace drives the full CLI path:
    # JSONL parse, span matching, attribution, report, exit code.
    INSPECT_TRACE="$(mktemp)"
    cat > "$INSPECT_TRACE" <<'EOF'
{"t_us":100,"ev":"arrival","server":0,"set":7,"buffered":false}
{"t_us":100,"ev":"dispatch","server":0,"set":7,"wait_us":0}
{"t_us":600,"ev":"complete","server":0,"set":7,"latency_us":500,"depth":0}
{"t_us":2000,"ev":"epoch_end","epoch":0,"moves":0,"tune":null}
EOF
    cargo run -q -p anu-inspect -- --check "$INSPECT_TRACE" | grep -q "integrity: OK"
    rm -f "$INSPECT_TRACE"

    summary
    printf '\n==> quick checks passed (release build and figures gate skipped)\n'
    exit 0
fi

step "tier-1: cargo build --release"
cargo build --release

step "tier-1: cargo test"
cargo test -q

step "figures + chaos + storm + meanfield + trace determinism gate (--jobs \$(nproc) vs --jobs 1)"
JOBS="$(nproc)"
SERIAL_DIR="$(mktemp -d)"
trap 'rm -rf "$SERIAL_DIR"' EXIT
# Parallel run writes the canonical out/ CSVs (series + tuner epochs), the
# chaos sweep (fault-injected grid, chaos_* series + chaos_summary.csv),
# the storm sweep (elasticity grid, storm_* series + storm_summary.csv),
# the mean-field sweep (analytic-oracle cross-validation, meanfield_*.csv
# — its divergence must shrink monotonically with scale and end <= 10%
# for every policy, a hard check), the epoch-level JSONL traces under
# out/trace/, the bench manifest (with the scale-1 and scale-100
# throughput probe and the multi-world aggregate), and enforces every
# figure's, chaos cell's, storm cell's and meanfield divergence checks.
# --bench-gate arms the exit-code contract: 0 = all pass, 1 = shape/chaos
# checks failed, 3 = checks passed but throughput fell below 0.8x of the
# in-process baseline (advisory here — the hard gate is bench-ratchet
# below, which compares against the committed history instead of grepping
# log lines).
FIGURES_RC=0
./target/release/figures --jobs "$JOBS" --chaos --storm --meanfield --out out \
    --bench-out BENCH_figures.json --scale-bench 100 --bench-gate \
    --multi-world 4 --trace-out out/trace --trace-level epoch || FIGURES_RC=$?
case "$FIGURES_RC" in
    0) ;;
    3) echo "WARNING: fig6 throughput below 0.8x the recorded constant baseline (soft verdict — bench-ratchet decides)" ;;
    *) echo "figures exited with $FIGURES_RC (shape/chaos checks failed)" >&2; exit "$FIGURES_RC" ;;
esac
# ...then a serial re-run must reproduce the same bytes, chaos, storm and
# meanfield outputs and traces included (the throughput probes are
# timing-only, so they are skipped).
./target/release/figures --jobs 1 --chaos --storm --meanfield --out "$SERIAL_DIR/out" \
    --bench-out "$SERIAL_DIR/BENCH_figures.json" \
    --trace-out "$SERIAL_DIR/out/trace" --trace-level epoch >/dev/null
diff -r out "$SERIAL_DIR/out"
echo "out/ (series, tuner epochs, metrics, chaos + storm + meanfield CSVs, JSONL+ring traces) is byte-identical at --jobs $JOBS and --jobs 1"

step "anu-inspect --check over every recorded trace (JSONL + binary ring)"
# Every trace the gate just wrote must reconstruct with clean integrity:
# no orphaned request events, balanced span markers, attribution that
# telescopes to each recorded latency.
./target/release/anu-inspect --check out/trace/*.jsonl out/trace/*.ring >/dev/null
echo "all recorded traces pass span-integrity checks"

step "hard perf gate: anu-xtask bench-ratchet vs committed BENCH_history.jsonl"
# Fails the build when scale-1 fig6 throughput in the fresh manifest drops
# below 0.8x of the best record in BENCH_history.jsonl. Improvements are
# banked with `cargo run -p anu-xtask -- bench-ratchet --update` in a
# reviewed commit.
cargo run -q -p anu-xtask -- bench-ratchet --manifest BENCH_figures.json

summary
printf '\n==> all checks passed\n'
