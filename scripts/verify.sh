#!/usr/bin/env bash
# Tier-1 verification under hermetic conditions.
#
# Proves the workspace needs nothing from crates.io: tier-1 (build +
# tests) runs --offline against an EMPTY cargo home, and every manifest
# is grepped for registry (non-path) dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

# 1. No registry dependencies in any manifest. Path/workspace deps use
#    inline tables ({ path = ... } / { workspace = true }); a registry
#    dep is a bare version string: `name = "1.2"`.
echo "==> checking manifests for registry dependencies"
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    if awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
        in_deps && /^[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*"/ { print FILENAME ": " $0; found = 1 }
        END { exit found }
    ' "$manifest"; then
        :
    else
        bad=1
    fi
done
if [ "$bad" -ne 0 ]; then
    echo "error: registry (non-path) dependency found above" >&2
    exit 1
fi

# 2. Tier-1 offline against an empty registry cache. A fresh CARGO_HOME
#    has no .crate files, no index — if anything tried to resolve from
#    crates.io this fails immediately.
echo "==> running tier-1 offline with an empty CARGO_HOME"
EMPTY_CARGO_HOME="$(mktemp -d)"
trap 'rm -rf "$EMPTY_CARGO_HOME"' EXIT
export CARGO_HOME="$EMPTY_CARGO_HOME"

cargo build --release --offline
cargo test -q --offline

# 3. Determinism & soundness lint. --check exits non-zero on any
#    unsuppressed finding; the JSON report is then re-parsed and
#    schema-validated by the linter itself (which uses the in-tree
#    crates/json parser), so the machine-readable side of the contract
#    is exercised on every run too.
echo "==> determinism & soundness lint (--check)"
LINT_OUT="$(mktemp)"
cargo run --release --offline -q -p taxoglimpse-lint -- \
    --workspace --check --json "$LINT_OUT"
cargo run --release --offline -q -p taxoglimpse-lint -- \
    --validate "$LINT_OUT"
rm -f "$LINT_OUT"

# 4. Bench plumbing smoke: the committed baseline must parse and pass
#    shape validation with the in-tree JSON crate — for the committed
#    file that includes the v2 acceptance gates: every batch/cache
#    config's reports_digest equal within each setting, hit rates in
#    [0, 1], and the zero-shot headline >= 2x the embedded baseline.
#    Then a quick-mode bench run (which sweeps every batched + cached
#    config too, aborting in-process on any digest divergence) must
#    produce a file that passes the same validation. Quick mode shrinks
#    the workload so this costs seconds, not a real measurement.
echo "==> bench smoke (TAXOGLIMPSE_BENCH_QUICK)"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_eval -- \
    --check BENCH_eval.json
SMOKE_OUT="$(mktemp)"
TAXOGLIMPSE_BENCH_QUICK=1 cargo run --release --offline -q \
    -p taxoglimpse-bench --bin bench_eval -- --label "verify smoke" --out "$SMOKE_OUT"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_eval -- \
    --check "$SMOKE_OUT"
rm -f "$SMOKE_OUT"

# 4b. Answer-extraction audit: the adversarial parser corpus (the three
#     PR 6 parser fixes plus the near-miss forms that must stay
#     Unparsed) and its pinned-digest neutrality proof. Tier-1 already
#     ran the whole suite; re-running just this corpus here keeps the
#     parser contract visible as its own verification step.
echo "==> answer-extraction corpus audit"
cargo test --release --offline -q --test parser_corpus

# 5. Data-production bench plumbing, same contract as stage 4: the
#    committed BENCH_synth.json must pass shape validation, and a
#    quick-mode run (tiny scales, snapshot cache in a temp dir) must
#    produce a file that does too. Quick mode still asserts digest
#    equality across worker counts, so the determinism contract is
#    exercised — only the measurement is toy-sized.
echo "==> synth bench smoke (TAXOGLIMPSE_BENCH_QUICK)"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_synth -- \
    --check BENCH_synth.json
SMOKE_OUT="$(mktemp)"
SMOKE_CACHE="$(mktemp -d)"
TAXOGLIMPSE_BENCH_QUICK=1 TAXOGLIMPSE_CACHE_DIR="$SMOKE_CACHE" \
    cargo run --release --offline -q \
    -p taxoglimpse-bench --bin bench_synth -- --label "verify smoke" --out "$SMOKE_OUT"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_synth -- \
    --check "$SMOKE_OUT"
rm -rf "$SMOKE_OUT" "$SMOKE_CACHE"

# 6. Resilience bench plumbing, same contract as stages 4/5: the
#    committed BENCH_resilience.json must pass shape validation
#    (including its rate-0 transparency invariants), and a quick-mode
#    fault smoke must produce a file that does too. The smoke run
#    re-proves the two hard invariants in-process — digests equal
#    across worker counts {1,2,8} at every fault rate, and the rate-0
#    digest equal to the bare (un-wrapped) pipeline — because
#    bench_resilience aborts if either fails. Also audit that the
#    error-path migration left no unwrap() in the new modules (lint
#    rule D003 gates this too; this is a cheap belt-and-braces check).
echo "==> resilience bench smoke (TAXOGLIMPSE_BENCH_QUICK)"
if grep -n '\.unwrap()' crates/core/src/resilience.rs crates/llm/src/faults.rs; then
    echo "error: unwrap() in resilience/fault modules (see above)" >&2
    exit 1
fi
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_resilience -- \
    --check BENCH_resilience.json
SMOKE_OUT="$(mktemp)"
TAXOGLIMPSE_BENCH_QUICK=1 cargo run --release --offline -q \
    -p taxoglimpse-bench --bin bench_resilience -- --label "verify smoke" --out "$SMOKE_OUT"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_resilience -- \
    --check "$SMOKE_OUT"
rm -f "$SMOKE_OUT"

# 7. Sharded scale-out bench plumbing, same contract as stages 4–6:
#    the committed BENCH_shard.json must pass shape validation —
#    including its headline invariant, reports/merged digests identical
#    across shard counts {1,2,8} within every fault rate, and
#    availability exactly 1 at fault rate 0 — and a quick-mode smoke
#    (tiny scales, snapshot cache in a temp dir) must produce a file
#    that passes the same validation. The smoke run re-proves the
#    digest invariant in-process at both sharding levels because
#    bench_shard aborts on any cross-shard-count divergence.
echo "==> shard bench smoke (TAXOGLIMPSE_BENCH_QUICK)"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_shard -- \
    --check BENCH_shard.json
SMOKE_OUT="$(mktemp)"
SMOKE_CACHE="$(mktemp -d)"
TAXOGLIMPSE_BENCH_QUICK=1 TAXOGLIMPSE_CACHE_DIR="$SMOKE_CACHE" \
    cargo run --release --offline -q \
    -p taxoglimpse-bench --bin bench_shard -- --label "verify smoke" --out "$SMOKE_OUT"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_shard -- \
    --check "$SMOKE_OUT"
rm -rf "$SMOKE_OUT" "$SMOKE_CACHE"

# 8. Interprocedural lint engine: exercise the schema-v2 surface the
#    way a consumer would. The workspace scan in stage 3 already ran
#    the new passes (D101/L001/L002/P001/S001 are part of --check);
#    here we additionally dump the call graph, check it is valid JSON
#    that names a known deep chain, validate a v2 report written fresh,
#    and require --explain to resolve every published rule id while
#    rejecting an unknown one with the usage exit code.
echo "==> interprocedural lint surface (--graph / --explain / schema v2)"
GRAPH_OUT="$(mktemp)"
LINT_OUT="$(mktemp)"
cargo run --release --offline -q -p taxoglimpse-lint -- \
    --workspace --check --graph "$GRAPH_OUT" --json "$LINT_OUT"
cargo run --release --offline -q -p taxoglimpse-lint -- \
    --validate "$LINT_OUT"
grep -q '"schema_version": 2' "$LINT_OUT" || {
    echo "error: lint report is not schema v2" >&2
    exit 1
}
grep -q 'core::resilience::ResilienceSession::call_impl' "$GRAPH_OUT" || {
    echo "error: call-graph dump is missing a known workspace chain" >&2
    exit 1
}
for rule in D001 D002 D003 C001 M001 U001 D101 L001 L002 P001 S001; do
    cargo run --release --offline -q -p taxoglimpse-lint -- \
        --explain "$rule" > /dev/null
done
if cargo run --release --offline -q -p taxoglimpse-lint -- \
    --explain Z999 > /dev/null 2>&1; then
    echo "error: --explain accepted an unknown rule id" >&2
    exit 1
fi
rm -f "$GRAPH_OUT" "$LINT_OUT"

# 9. Serving bench plumbing, same contract as stages 4–7: the
#    committed BENCH_serve.json must pass shape validation — including
#    its headline invariant (wall-clock serving throughput within 1.5x
#    of the offline grid at fault-free saturation), availability
#    exactly 1 at fault rate 0, monotone p50 <= p99 <= p99.9, and shed
#    accounting consistent with arrivals/admitted — and a quick-mode
#    smoke (tiny pool, snapshot cache in a temp dir) must produce a
#    file that passes the same validation. The smoke run re-proves the
#    determinism invariant in-process because bench_serve aborts if
#    any cell's serving report differs across prefetch worker counts
#    {1,2,8}.
echo "==> serve bench smoke (TAXOGLIMPSE_BENCH_QUICK)"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_serve -- \
    --check BENCH_serve.json
SMOKE_OUT="$(mktemp)"
SMOKE_CACHE="$(mktemp -d)"
TAXOGLIMPSE_BENCH_QUICK=1 TAXOGLIMPSE_CACHE_DIR="$SMOKE_CACHE" \
    cargo run --release --offline -q \
    -p taxoglimpse-bench --bin bench_serve -- --label "verify smoke" --out "$SMOKE_OUT"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_serve -- \
    --check "$SMOKE_OUT"
rm -rf "$SMOKE_OUT" "$SMOKE_CACHE"

# 10. Hierarchical-classification bench plumbing, same contract as
#     stages 4–7/9: the committed BENCH_hier.json must pass shape
#     validation — including its headline invariant, the constrained
#     descent's invalid-label count exactly 0 in every (model,
#     taxonomy) cell, and outcome counts partitioning the instance
#     count — and a quick-mode smoke (tiny caps, snapshot cache in a
#     temp dir) must produce a file that passes the same validation.
#     The smoke run re-proves the determinism invariant in-process
#     because bench_hier aborts if any cell's report differs across
#     worker counts {1,2,8}.
echo "==> hier bench smoke (TAXOGLIMPSE_BENCH_QUICK)"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_hier -- \
    --check BENCH_hier.json
SMOKE_OUT="$(mktemp)"
SMOKE_CACHE="$(mktemp -d)"
TAXOGLIMPSE_BENCH_QUICK=1 TAXOGLIMPSE_CACHE_DIR="$SMOKE_CACHE" \
    cargo run --release --offline -q \
    -p taxoglimpse-bench --bin bench_hier -- --label "verify smoke" --out "$SMOKE_OUT"
cargo run --release --offline -q -p taxoglimpse-bench --bin bench_hier -- \
    --check "$SMOKE_OUT"
rm -rf "$SMOKE_OUT" "$SMOKE_CACHE"

# 11. End-to-end benchmark: the perfbench package's own tests (shim
#     identity, check plumbing), then a short hier_descent run and one
#     paper_tables pass. A run prints `"correct": true` only if every
#     pass reproduced the pinned seed-42 report digest (and, for
#     hier_descent, the constrained descent emitted zero invalid
#     labels); the exact match below is the gate. paper_tables is the
#     only pinned digest over the full-scale simulated-model path (all
#     18 models, 881,730 queries).
echo "==> perfbench tests + hier_descent and paper_tables pinned-digest runs"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
BENCH_OUT="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload hier_descent --seed 42 --seconds 3 2>/dev/null | tail -n 1)" || true
case "$BENCH_OUT" in
    '{"correct": true,'*) ;;
    *)
        echo "error: hier_descent benchmark run failed its checks: $BENCH_OUT" >&2
        exit 1
        ;;
esac
BENCH_OUT="$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
    --workload paper_tables --seed 42 --seconds 1 2>/dev/null | tail -n 1)" || true
case "$BENCH_OUT" in
    '{"correct": true,'*) ;;
    *)
        echo "error: paper_tables benchmark run failed its checks: $BENCH_OUT" >&2
        exit 1
        ;;
esac

echo "==> verify OK: hermetic tier-1 passed"
