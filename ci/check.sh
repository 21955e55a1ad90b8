#!/usr/bin/env bash
# Local CI gate. Runs everything a PR must pass, in cheap-to-expensive
# order: formatting, the clippy wall (all targets), the library-only lints
# (no panics, no stdio), the per-lint ceilings on `#[expect]` exceptions,
# the workspace's Rust line count (reported only), rustdoc with warnings as
# errors, the tier-1 build and test suite (whose
# lint-case tests run the gate over each construct in ci/lint-cases under
# the library flags below), anu-workload's tests in release with its
# ignored tests, the figures determinism gate
# (parallel run's outputs and manifest byte-identical to serial, the
# studies beyond the figures included), the
# committed-record gate (BENCH_figures.json, whose outputs[] pins every
# file the run writes, and the summary tables under out/ must equal what
# this commit writes), three end-to-end benchmark runs, scale_hotpath,
# paper_grid and churn_storm (e2e-bench/: pinned fingerprint,
# conservation/audit checks and a per-workload peak-memory ceiling gate;
# timings are reported, not gated), and e2e-bench's own tests.
# Fails fast on the first broken step and prints a per-step timing
# summary at the end.
#
# Usage: ci/check.sh [--quick]
#   --quick   skip the release build and the figures gate; run the debug
#             test suite and type-check e2e-bench only. For fast local
#             iteration — the full gate still runs in CI.
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

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Library code returns errors instead of panicking and leaves stdio to the
# binaries. `--lib` compiles no cfg(test) code and no binaries, examples,
# benches or integration tests, so these lints reach library code only.
# An exception is an `#[expect(lint, reason = "...")]` at the site. The
# lint-case tests in ci/lint-cases read these flags from this array.
LIB_LINTS=(-D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic
    -D clippy::print_stdout -D clippy::print_stderr)

step "cargo clippy --workspace --lib (library-only lints: no panics, no stdio)"
cargo clippy --workspace --lib -- "${LIB_LINTS[@]}"

step "lint exceptions: #[expect] count per lint within its ceiling"
# Each ceiling is the tree's count when it was last lowered: removing an
# exception lowers it here, and raising one is a reviewed edit of this
# list. A lint with no ceiling allows no exception.
declare -A CEILING=(
    [clippy::expect_used]=19
    [clippy::panic]=1
    [clippy::print_stdout]=1
    [clippy::print_stderr]=1
)
RATCHET_OK=1
while read -r count lint; do
    ceiling="${CEILING[$lint]:-0}"
    printf '  %-24s %3d (ceiling %d)\n' "$lint" "$count" "$ceiling"
    ((count <= ceiling)) || RATCHET_OK=0
done < <(grep -rhzoP '#!?\[expect\(\K[^=]*?(?=,?\s*reason\s*=|\)\])' src crates/*/src |
    tr '\0,' '\n\n' | tr -d ' \t' | grep -v '^$' | sort | uniq -c)
[[ "$RATCHET_OK" == 1 ]]

step "workspace size: lines of Rust outside e2e-bench/ (reported, not gated)"
# The number ROADMAP aim 2 tracks; a change records it before and after.
find crates src tests examples ci -name '*.rs' | xargs cat | wc -l

step "rustdoc: cargo doc --workspace --no-deps with warnings as errors"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

if [[ "$QUICK" == 1 ]]; then
    step "e2e-bench type-check (its own workspace; all targets)"
    # The root workspace never builds e2e-bench, and some workspace APIs
    # have no other caller (see the e2e-bench test step of the full gate),
    # so a change that breaks one fails here in seconds.
    cargo check -q --manifest-path e2e-bench/Cargo.toml --all-targets

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

step "anu-workload in release, ignored tests included: generation order and the storm warp at full size"
# Two ignored tests, too slow for debug tier-1: one builds e2e-bench's
# largest inputs (fig8 x50, fig6 x20, a 1M-request adversarial storm) both
# ways, without and with the global sort, and requires them equal; the
# other checks the lockstep storm warp against the scalar bisection on
# 100,000 seeded targets per rate CDF.
cargo test --release -q -p anu-workload -- --include-ignored

step "figures + chaos + storm + meanfield + studies + trace determinism gate (--jobs \$(nproc) vs --jobs 1)"
JOBS="$(nproc)"
SERIAL_DIR="$(mktemp -d)"
trap 'rm -rf "$SERIAL_DIR"' EXIT
# Parallel run writes the canonical out/ CSVs (series, tuner epochs,
# metrics), the chaos sweep (fault-injected grid, chaos_* series +
# chaos_summary.csv), the storm sweep (elasticity grid, storm_* series +
# storm_summary.csv), the mean-field sweep (analytic-oracle
# cross-validation, meanfield_*.csv — its divergence must shrink
# monotonically with scale and end <= 10% for every policy, a hard
# check), the studies beyond the figures (ablations and extensions,
# studies_*.csv, with one verdict per study that makes a claim), the
# epoch-level JSONL traces under out/trace/, and the run manifest, whose
# outputs[] pins the length and FNV-1a hash of every one of those files;
# it enforces every figure's, chaos cell's, storm's, meanfield's and
# study's checks. Exit codes: 0 = all pass, 1 = a check failed, 2 =
# usage error or unwritable output path. Only the four summary tables
# are committed under out/; clearing out/trace first keeps traces an
# older build wrote out of the comparison.
rm -rf out/trace
./target/release/figures --jobs "$JOBS" --chaos --storm --meanfield --studies --out out \
    --bench-out BENCH_figures.json --trace-out out/trace --trace-level epoch
# ...then a serial re-run must reproduce the same bytes, chaos, storm,
# meanfield and studies outputs, traces and the run manifest included.
./target/release/figures --jobs 1 --chaos --storm --meanfield --studies \
    --out "$SERIAL_DIR/out" --bench-out "$SERIAL_DIR/BENCH_figures.json" \
    --trace-out "$SERIAL_DIR/out/trace" --trace-level epoch >/dev/null
diff -r out "$SERIAL_DIR/out"
cmp BENCH_figures.json "$SERIAL_DIR/BENCH_figures.json"
echo "out/ (series, tuner epochs, metrics, chaos + storm + meanfield + studies CSVs, JSONL traces) and BENCH_figures.json are byte-identical at --jobs $JOBS and --jobs 1"

step "committed record: BENCH_figures.json and out/ equal what this commit writes"
# The committed manifest is the one hash list: its outputs[] pins every
# CSV and trace the run above wrote, so a clean diff here checks every
# output file's bytes, and the four committed summary tables directly.
git diff --exit-code -- BENCH_figures.json out/
echo "the committed manifest pins this commit's outputs"

step "anu-inspect --check over every recorded JSONL trace"
# Every trace the gate just wrote must reconstruct with clean integrity:
# no orphaned request events, balanced span markers, attribution that
# telescopes to each recorded latency.
./target/release/anu-inspect --check out/trace/*.jsonl >/dev/null
echo "all recorded JSONL traces pass span-integrity checks"

# Peak memory ceilings (MB) of the three e2e runs below, kept like the
# #[expect] ceilings: each is 10% (BENCHMARK.json's bound on peak_rss_mb)
# above the seed-1 peak measured when it was last set, so holding more per
# request or per queued job fails here. Lowering one is routine, and
# raising one is a reviewed edit of this list.
declare -A RSS_CEILING_MB=(
    [scale_hotpath]=168.1
    [paper_grid]=38.7
    [churn_storm]=51.9
)

# One e2e-bench run of workload $1 at seed 1, echoed in full; then its
# peak_rss_mb, read from the last (JSON) line, against its ceiling.
e2e_run() {
    local out peak ceiling="${RSS_CEILING_MB[$1]}" status=0
    out="$(cargo run --release --quiet --manifest-path e2e-bench/Cargo.toml --bin e2e -- \
        --workload "$1" --seed 1 --seconds 0)" || status=$?
    printf '%s\n' "$out"
    ((status == 0)) || return "$status"
    peak="$(tail -n 1 <<<"$out" | grep -oP '"peak_rss_mb":\{"value":\K[0-9.]+')"
    printf '  peak_rss_mb %s (ceiling %s)\n' "$peak" "$ceiling"
    awk -v peak="$peak" -v ceiling="$ceiling" 'BEGIN { exit !(peak + 0 <= ceiling + 0) }'
}

step "e2e-bench scale_hotpath (fingerprint + conservation/audit checks + memory ceiling; timings reported)"
# The repo's one performance measurement (see e2e-bench/README.md and
# BENCHMARK.json). Exits 1 when a pinned fingerprint or an output check
# fails; the end-to-end numbers it prints are informational here, so a
# performance claim can point at a number this script produced.
e2e_run scale_hotpath

step "e2e-bench paper_grid (fingerprint + conservation/audit checks + memory ceiling; timings reported)"
# The Figures 6-11 lineup, and the only workload that runs the
# dynamic-prescient policy: its pinned fingerprint guards the prescient
# solve and its lower-bound skip on every full gate.
e2e_run paper_grid

step "e2e-bench churn_storm (fingerprint + conservation/audit checks + memory ceiling; timings reported)"
# Storm cells with churn faults, autoscaling and shedding: the only gated
# workload where autoscaler commissions and decommissions meet crashes and
# admission sheds, so its pinned fingerprint guards the world's one
# take-down and one bring-up path.
e2e_run churn_storm

step "e2e-bench tests (its own workspace; not covered by the tier-1 cargo test)"
# e2e-bench is a separate Cargo workspace, so the root `cargo test` never
# builds its tests. They call workspace APIs (`run_traced_profiled`,
# `Assignment`, `ClusterView`, `MoveSet`, and the metrics registry's
# `Registry::{find, value, hist, snapshots}`), so a workspace change that
# breaks an API only e2e-bench uses fails here and nowhere else; --quick
# type-checks them too.
cargo test -q --manifest-path e2e-bench/Cargo.toml

summary
printf '\n==> all checks passed\n'
