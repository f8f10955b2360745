#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md).
#
# 1. Release build + full test suite — the seed contract, over every
#    workspace member: a bare `cargo test` at the root runs only the
#    facade package, which would skip the crate suites (the session's
#    random edit sequences, the speclang incremental suites).
#    `--workspace` includes the root package, so every integration
#    suite runs here, once, on every verify:
#    - tests/fault_injection.rs: checkpoint corruption
#      (truncation/bit-flips/header smashing), kill-and-resume exactness
#      for all four partitioners, the incremental-estimator self-audit,
#      and a runtime fault storm;
#    - tests/runtime_soak.rs: 500 mixed jobs (>30% injected faults —
#      worker panics, malformed/corrupted/oversized inputs, runs of
#      estimates that fail at full strictness) through a 4-worker
#      JobService; asserts exactly-one-terminal-state per job,
#      bit-identity with inline execution (identical requests get
#      identical answers whatever else is in flight), each panic job
#      run exactly once, and balanced health books;
#    - tests/analyze_props.rs and tests/dataflow_props.rs: the
#      analyzer's determinism, per-lint firing fixtures, fixpoint
#      determinism and incremental bit-identity;
#    - tests/store_soak.rs, tests/wire_soak.rs and tests/format_soak.rs
#      (steps 6, 7 and 10 below).
# 2. Checkpoint round-trip smoke: the resume_run example interrupts a
#    supervised annealing run on a budget, reloads the checkpoint file,
#    and asserts the resumed run is bit-identical to an uninterrupted
#    one. It exits nonzero on any mismatch.
# 3. Runtime smoke: the serve_batch example drives the JobService of
#    the step-1 runtime soak end to end.
# 4. Spec-level lint gate: the analyze_spec example runs the
#    slif-analyze engine — the graph passes (races, dead code,
#    recursion cycles, bitwidth hazards, annotation gaps) plus the
#    flow-sensitive passes (value ranges, uninitialized reads, dead
#    stores, constant conditions) — over every corpus spec in
#    deny-warnings mode and exits nonzero on any finding; the shipped
#    corpus must lint clean. It runs twice: once for the human-readable
#    rendering and once in `--format json` (the stable machine schema).
#    The analyzer's own property suites run in step 1.
# 5. Bench smoke: the pr3_bench binary re-measures baseline vs
#    compiled candidate evaluation and rewrites BENCH_pr3.json, so the
#    committed speedup record always matches the code being verified.
#    Its build record times lowering and pre-synthesis of every corpus
#    behavior and asserts the floor: corpus synthesis takes at most 1.0x
#    the corpus lowering time (the hash-map scheduler measured ~7x).
# 6. Wire smoke: loadgen binds a slif-serve instance in-process on an
#    ephemeral port (--self-serve, so no port coordination) and drives
#    500 mixed requests with >30% injected client faults — slow
#    writers, truncated bodies, bad API keys, oversized declarations,
#    tenant floods. It exits nonzero on any contract violation (wrong
#    status, clean body not byte-identical to the inline run, a caught
#    worker panic) and rewrites BENCH_serve.json so the committed
#    throughput/p99 record always matches the code being verified. The
#    full 10k-request soak runs as tests/wire_soak.rs in step 1.
# 7. Durability soak: tests/store_soak.rs (in step 1) drives 24 restart
#    cycles of a durable slif-serve over one store directory, corrupting
#    the journal and the design cache between cycles (>30% of cycles,
#    all four StoreFaultKind classes) — every acknowledged job must keep
#    replaying its exact status and body, and every served body (cold or
#    warm-cache) must stay byte-identical to the inline run. The
#    restart_smoke binary then proves the same contract cross-process:
#    it SIGKILLs a real slif-serve child mid-flight and requires the
#    journalled result and a warm cache hit from its successor.
# 8. Store bench smoke: pr7_store re-measures the durability ledger —
#    cold spec-compile vs verified warm cache read, and the fsynced
#    journal append pair every durable job pays — and rewrites
#    BENCH_store.json so the committed record matches the code.
# 9. Edit-session smoke: the edit_session example opens a session,
#    walks all three recompute tiers (patched / recompiled / deferred)
#    locally, then drives the same protocol across the wire (POST
#    /sessions, POST /sessions/{id}/edit, GET /sessions/{id}) against an
#    in-process server, asserting tier and cleanliness on each hop. The
#    pr8_edit bench then re-measures warm-edit vs cold-open latency at
#    ~120 and ~1200 nodes — asserting every edit stays clean on the
#    patch tier and that the ~1200-node warm edit beats the cold open by
#    at least 8x (the asserted floor, under 2/3 of the measured ~13x
#    median; the design target is 10x) — and rewrites BENCH_edit.json so
#    the committed speedup record always matches the code being verified.
# 10. Interchange-format gate: the format fault soak (tests/format_soak.rs,
#    in step 1) drives ≥500 corrupted/truncated/hostile-cap inputs
#    through the strict parser and POST /designs — zero panics, zero
#    wrong answers, every rejection typed. The slif_conv example then
#    proves every corpus spec survives text → binary → text with the
#    final text byte-identical to the first, and the pr9_wirefmt bench
#    re-measures interchange write/parse throughput at 1k/10k/100k nodes
#    plus the compiled-cache ladder — asserting the warm CompiledDesign
#    hit beats both the cold parse+compile path and the PR 7 design-only
#    cache — and rewrites BENCH_wirefmt.json so the committed record
#    matches the code.
# 11. Analysis bench smoke: pr10_analyze re-measures flow-sensitive
#    analysis throughput at ~1k/10k/100k design nodes and the memoized
#    one-procedure re-analysis on the largest corpus spec — asserting
#    the warm pass beats the cold full analysis by ≥5x and returns a
#    bit-identical report, and that throughput at ~100k nodes is at
#    least 1/3 of the ~10k rung's (no super-linear cliff) — and rewrites
#    BENCH_analyze.json so the committed record matches the code.
# 12. Benchmark self-tests: perfbench/ is its own package outside the
#    workspace, so `cargo test` above never compiles it. Its tests run
#    here, so a change to a crate API it drives (or to the answers its
#    planted-wrong-answer checks expect) fails this gate instead of
#    silently breaking the benchmark.
# 13. Lint gate: clippy with warnings denied (the workspace sweep covers
#    crates/analyze like every other crate), plus `unwrap_used` on
#    non-test code (without --all-targets, #[cfg(test)] code is not
#    linted, which is exactly the carve-out we want: tests may unwrap,
#    library paths must return typed errors). slif-explore and
#    slif-estimate carry `#![warn(clippy::expect_used)]` at crate level
#    — `-D warnings` promotes it, so the checkpoint and self-audit paths
#    can never panic on bad input. slif-runtime warns on expect_used too:
#    serving code must degrade, not die.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: a bare root build covers only the facade package, which
# can leave member binaries (notably the slif-serve the restart_smoke
# step spawns from target/release/) stale.
cargo build --release --workspace
cargo test -q --workspace
cargo run --release --quiet --example resume_run
cargo run --release --quiet --example serve_batch
cargo run --release --quiet --example analyze_spec -- --deny-warnings
cargo run --release --quiet --example analyze_spec -- --deny-warnings --format json
cargo run --release --quiet -p slif-bench --bin pr3_bench BENCH_pr3.json
cargo run --release --quiet -p slif-serve --bin loadgen -- --self-serve --requests 500 --out BENCH_serve.json
cargo run --release --quiet -p slif-serve --bin restart_smoke
cargo run --release --quiet -p slif-bench --bin pr7_store BENCH_store.json
cargo run --release --quiet --example edit_session
cargo run --release --quiet -p slif-bench --bin pr8_edit
cargo run --release --quiet --example slif_conv
cargo run --release --quiet -p slif-bench --bin pr9_wirefmt
cargo run --release --quiet -p slif-bench --bin pr10_analyze
cargo test --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace -- -D warnings -W clippy::unwrap_used
