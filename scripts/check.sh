#!/usr/bin/env bash
# Full correctness gate for the lock & runtime layers. Runs every check
# the toolchain on this machine can support and skips (loudly) the ones
# it cannot, so the same script works in CI and on an offline dev box.
#
#   fmt        rustfmt, check mode
#   clippy     workspace lints table ([workspace.lints]) and the root
#              clippy.toml's determinism bans (wall clock, environment,
#              hash containers) at -D warnings
#   lint       mtmpi-lint (rules L001-L003, L005 and L007: Relaxed
#              hand-off mutations, Acquire-less published loads, nested
#              critical sections, panics on typed-error paths, host
#              guards held across a simulated-thread suspension) over
#              the whole workspace;
#              any finding fails, and only a `// lint: allow(Lxxx) <why>`
#              comment at the site accepts one (DESIGN.md section 13)
#   test       workspace test suite (includes the runtime's request-ledger
#              negative tests and mtmpi-lint's fixture + whole-tree tests)
#   release    the simulator, runtime, facade, serve, Graph500, bench, obs
#              and prof test suites again, optimised: the fiber transport's
#              unsafe paths, the debug-only checks' release branches, the BFS
#              and schedule pins' literal hashes as the figures run them, the
#              exporters' multi-MiB, huge-page-hinted buffers, and prof, the
#              main reader of the recorded events
#   loom       model checking of the ticket and priority ticket locks,
#              the VCI claim protocol and the stream claim word (serialized-thread
#              shim; see crates/locks/src/sys.rs,
#              crates/runtime/tests/loom_claim.rs + loom_stream.rs)
#   tsan       ThreadSanitizer over the locks crate. Prefers an
#              instrumented std (`-Zbuild-std`, rust-src component):
#              with the prebuilt std, every Mutex/Condvar edge is
#              invisible to TSan and each one shows up as a false-positive
#              data race (verified: every warning on this tree implicates
#              accesses guarded by std::sync::Mutex — FutexMutex's sleeper
#              counter and libtest's own harness channel). Without
#              rust-src, falls back to the prebuilt std with those known
#              false positives suppressed via scripts/tsan.supp, naming
#              the narrowest guarded accessor functions (the
#              uninstrumented std leaves no std frames in the stacks to
#              match — see the policy comment in that file).
#   miri       UB check of the locks crate, the obs JSON writer
#              (`json::` tests) and the obs recorder's shards and drain
#              (`recorder::` tests) under cargo miri (nightly component;
#              skipped when not installed).
#   obs        observability smoke test: run fig2a (one lock per rank)
#              and fig_vci (several locks per rank) traced twice each via `xtask trace`, validate each
#              results/BENCH_<fig>.json (including its prof blocks) and
#              results/<fig>.trace.json are well-formed JSON, and require
#              the trace and results/<fig>.prom to be byte-identical
#              between the two same-seed runs (a trace is a pure
#              function of the seed); then render fig2a's profiles
#              with `xtask top`, the one human view of a prof block.
#   bench-diff the one figure gate (`xtask bench-diff`): run every
#              figure with a BENCH_<fig>.json under results/baseline/
#              once and require each of its files there
#              (the document, plus fig_serve's per-tenant digest file)
#              to equal the fresh text; a mismatch names the first
#              differing path or line. DESIGN.md sections 10-17.
#   bench-api  build and test the standalone host-cost benchmark
#              (benchmark/, its own workspace) against this tree, so a
#              change that breaks the public surface it is pinned to
#              fails here rather than in the benchmark driver; then run
#              every workload once through the driver contract (1 s,
#              seed 1, release), which exits non-zero unless the
#              workload's result is `correct` (needs `taskset`), and
#              once traced (`--trace 1`: every workload's traced path
#              plus the `probes` child, ~2 s).
#
# Usage: scripts/check.sh [fast]   ("fast" runs only fmt, clippy, lint and
#        test; every other step above is skipped)
set -uo pipefail
cd "$(dirname "$0")/.."

FAST=${1:-}
FAIL=0
SKIPPED=()

step() {
    local name=$1; shift
    echo "=== $name: $* ==="
    if "$@"; then
        echo "--- $name: ok"
    else
        echo "--- $name: FAILED"
        FAIL=1
    fi
}

skip() {
    echo "=== $1: SKIPPED ($2)"
    SKIPPED+=("$1: $2")
}

step fmt    cargo fmt --all -- --check
step clippy cargo clippy --workspace --all-targets -- -D warnings
step lint   cargo run -q -p xtask -- lint
step test   cargo test --workspace -q

if [ "$FAST" = "fast" ]; then
    skip release "fast mode"
    skip loom "fast mode"
    skip tsan "fast mode"
    skip miri "fast mode"
    for s in obs bench-diff bench-api; do
        skip "$s" "fast mode"
    done
else
    step release cargo test --release -q -p mtmpi-sim -p mtmpi-runtime -p mtmpi -p mtmpi-serve -p mtmpi-graph500 -p mtmpi-bench -p mtmpi-obs -p mtmpi-prof
    step loom cargo test -p mtmpi-locks --features loom-check --test loom
    step loom cargo test -p mtmpi-runtime --test loom_claim --test loom_stream
    step obs cargo run -q -p xtask -- trace fig2a
    step obs cargo run -q -p xtask -- top fig2a
    step obs cargo run -q -p xtask -- trace fig_vci
    step bench-diff cargo run -q -p xtask -- bench-diff
    step bench-api cargo test --offline --manifest-path benchmark/Cargo.toml
    for w in pt2pt_figure profile_export bfs_compute serve_pool; do
        step bench-api cargo run --release --offline -q --manifest-path benchmark/Cargo.toml \
            -- --workload "$w" --seed 1 --seconds 1 --trace 0
    done
    step bench-api cargo run --release --offline -q --manifest-path benchmark/Cargo.toml \
        -- --workload pt2pt_figure --seed 1 --seconds 1 --trace 1

    if ! cargo +nightly --version >/dev/null 2>&1; then
        skip tsan "no nightly toolchain"
        skip miri "no nightly toolchain"
    else
        # TSan is sharpest with an instrumented std; without rust-src,
        # fall back to the prebuilt std and suppress the known
        # uninstrumented-Mutex/Condvar false positives (see header
        # comment and scripts/tsan.supp).
        if rustc +nightly --print sysroot >/dev/null 2>&1 \
           && [ -d "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library" ]; then
            step tsan env RUSTFLAGS="-Zsanitizer=thread" \
                cargo +nightly test -p mtmpi-locks --lib \
                -Zbuild-std --target x86_64-unknown-linux-gnu
            # No mtmpi-sim step: it has no cross-thread hand-off left
            # (fibers), and TSan cannot follow an asm stack switch.
        else
            # -Cunsafe-allow-abi-mismatch: recent nightlies refuse to
            # link sanitized crates against the unsanitized prebuilt
            # std; the mismatch is exactly what this fallback accepts.
            step tsan env \
                RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
                TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
                cargo +nightly test -p mtmpi-locks --lib \
                --target x86_64-unknown-linux-gnu
        fi

        if cargo +nightly miri --version >/dev/null 2>&1; then
            step miri env MIRIFLAGS="-Zmiri-ignore-leaks" \
                cargo +nightly miri test -p mtmpi-locks --lib
            step miri cargo +nightly miri test -p mtmpi-obs --lib json::
            step miri cargo +nightly miri test -p mtmpi-obs --lib recorder::
        else
            skip miri "miri component not installed"
        fi
    fi
fi

echo
if [ ${#SKIPPED[@]} -gt 0 ]; then
    echo "skipped:"
    for s in "${SKIPPED[@]}"; do echo "  - $s"; done
fi
if [ "$FAIL" -ne 0 ]; then
    echo "check.sh: FAILURES above"
    exit 1
fi
echo "check.sh: all runnable checks passed"
