#!/usr/bin/env bash
# ThreadSanitizer pass over the concurrency-sensitive paths: the lock-free
# telemetry registry (atomic counter merges), the HTTP server core both
# front ends share (accept thread -> worker pool -> stop flag) and the
# serve-layer request coalescing (dispatcher shards + waiter handoff).
#
# TSan needs a nightly toolchain (-Zsanitizer=thread) and, for a fully
# instrumented std, -Zbuild-std + the rust-src component. The job is
# advisory: when no nightly toolchain is available (offline runners,
# stable-only images) it exits 0 with a notice instead of failing CI.
set -u -o pipefail

cd "$(dirname "$0")/.."

if ! command -v rustup >/dev/null 2>&1; then
    echo "tsan: rustup not installed; skipping (advisory job)"
    exit 0
fi
if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
    if ! rustup toolchain install nightly --profile minimal >/dev/null 2>&1; then
        echo "tsan: nightly toolchain unavailable; skipping (advisory job)"
        exit 0
    fi
fi
rustup component add rust-src --toolchain nightly >/dev/null 2>&1 || true

TARGET=x86_64-unknown-linux-gnu

# The three tests TSan gates: the registry's cross-thread counter sum,
# the HTTP server's shed + shutdown path (the one accept loop the
# metrics sidecar and the query gateway share), and the end-to-end
# coalescing trace (batched answers handed back to per-request waiters
# across shards).
run_tests() {
    cargo +nightly test "$@" --target "$TARGET" \
        -p problp-telemetry concurrent_counter_increments_sum_exactly &&
    cargo +nightly test "$@" --target "$TARGET" \
        -p problp-telemetry --lib full_queue_is_shed_and_shutdown_is_prompt &&
    cargo +nightly test "$@" --target "$TARGET" \
        -p problp-engine --lib mixed_tenant_trace_is_bit_identical_to_serve_one
}

# TSan is only sound with a *sanitized* std (-Zbuild-std, needs the
# rust-src component): an uninstrumented std hides the happens-before
# edges its mutexes and channels establish, so everything they guard
# reports as a false race. No rust-src → no meaningful run → skip.
if ! rustup component list --toolchain nightly 2>/dev/null |
    grep -q "rust-src (installed)"; then
    if ! rustup component add rust-src --toolchain nightly >/dev/null 2>&1; then
        echo "tsan: rust-src unavailable (offline toolchain?); skipping (advisory job)"
        exit 0
    fi
fi

export RUSTFLAGS="-Zsanitizer=thread"
if run_tests -Zbuild-std; then
    echo "tsan: clean (sanitized std)"
else
    echo "tsan: FAILED"
    exit 1
fi
