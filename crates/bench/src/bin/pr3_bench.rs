//! PR 3 bench smoke: baseline vs compiled cost evaluation, as JSON.
//!
//! Measures the median ns per candidate evaluation (move one node +
//! recompute the full cost) on generated designs at ~100, ~1k, and ~10k
//! nodes, for three estimators:
//!
//! - `baseline_incremental` — the pre-refactor design-walking estimator
//!   preserved in [`slif_bench::baseline`],
//! - `compiled_incremental` — today's `IncrementalEstimator` over a
//!   `CompiledDesign`,
//! - `compiled_full` — the memo-clearing `FullEstimator`, the floor any
//!   incremental scheme must beat.
//!
//! It also records the pre-synthesis cost of a cold build (the paper's
//! T-slif step) on every corpus spec: the median ns to lower the spec to
//! CDFGs (`lower_spec`) and to synthesize every behavior once
//! (`synthesize_behavior`, against the standard library's first ASIC
//! model). Block scheduling is the inner loop of that synthesis; the
//! bench asserts it costs no more than lowering (`SYNTHESIS_FLOOR`) over
//! the corpus.
//!
//! Writes `BENCH_pr3.json` (or the path given as the first argument).
//! Unlike the criterion targets this emits machine-readable output, so
//! `scripts/verify.sh` can seed the repo's benchmark record.

use slif_bench::baseline::{baseline_cost, BaselineIncremental};
use slif_cdfg::lower_spec;
use slif_core::gen::DesignGenerator;
use slif_core::{CompiledDesign, Design, NodeId, Partition, PmRef};
use slif_estimate::{FullEstimator, IncrementalEstimator};
use slif_explore::{cost, Objectives};
use slif_speclang::corpus;
use slif_techlib::{synthesize_behavior, TechnologyLibrary};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const MOVES: usize = 64;
const ROUNDS: usize = 15;
/// Rounds of the corpus build record.
const BUILD_ROUNDS: usize = 51;
/// Asserted ceiling on corpus synthesis time over corpus lowering time.
const SYNTHESIS_FLOOR: f64 = 1.0;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// One timed round over a pre-built estimator: `MOVES` move+cost
/// evaluations, target shifted by `shift` so repeated rounds never
/// degenerate into no-op moves. Construction and design compilation stay
/// outside the timer — an exploration compiles the design once and then
/// evaluates thousands of candidates, and the acceptance metric is the
/// per-candidate cost.
fn timed_round<E>(
    design: &Design,
    est: &mut E,
    shift: usize,
    mut mv: impl FnMut(&mut E, NodeId, PmRef),
    mut score: impl FnMut(&mut E) -> f64,
) -> f64 {
    let procs: Vec<_> = design.processor_ids().collect();
    let n_nodes = design.graph().node_count();
    let start = Instant::now();
    let mut acc = 0.0;
    for k in 0..MOVES {
        let n = NodeId::from_raw((k % n_nodes) as u32);
        let target: PmRef = procs[(k + shift) % procs.len()].into();
        mv(est, n, target);
        acc += score(est);
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / MOVES as f64
}

fn measure(design: &Design, part: &Partition, objectives: &Objectives) -> (f64, f64, f64) {
    let cd = CompiledDesign::compile(design);
    let baseline = {
        let mut est = BaselineIncremental::new(design, part.clone()).expect("valid start");
        median(
            (0..ROUNDS)
                .map(|r| {
                    timed_round(
                        design,
                        &mut est,
                        r,
                        |e, n, t| {
                            e.move_node(n, t).expect("legal move");
                        },
                        |e| baseline_cost(design, e, objectives).expect("estimable"),
                    )
                })
                .collect(),
        )
    };
    let incremental = {
        let mut est = IncrementalEstimator::from_compiled(&cd, part.clone()).expect("valid start");
        median(
            (0..ROUNDS)
                .map(|r| {
                    timed_round(
                        design,
                        &mut est,
                        r,
                        |e, n, t| {
                            e.move_node(n, t).expect("legal move");
                        },
                        |e| cost(e, objectives).expect("estimable"),
                    )
                })
                .collect(),
        )
    };
    let full = {
        let mut est = FullEstimator::from_compiled(&cd, part.clone()).expect("valid start");
        median(
            (0..ROUNDS)
                .map(|r| {
                    timed_round(
                        design,
                        &mut est,
                        r,
                        |e, n, t| {
                            e.move_node(n, t).expect("legal move");
                        },
                        |e| cost(e, objectives).expect("estimable"),
                    )
                })
                .collect(),
        )
    };
    (baseline, incremental, full)
}

/// Median ns of `lower_spec` and of synthesizing every behavior, per
/// corpus spec, as JSON entries; plus the corpus totals of both medians.
fn build_record() -> (String, f64, f64) {
    let lib = TechnologyLibrary::standard();
    let model = &lib.asics[0];
    let mut entries = String::new();
    let (mut lower_total, mut synth_total) = (0.0, 0.0);
    for (i, entry) in corpus::all().iter().enumerate() {
        let rs = entry.load().expect("corpus spec loads");
        let cdfgs = lower_spec(&rs);
        let mut lower = Vec::with_capacity(BUILD_ROUNDS);
        let mut synth = Vec::with_capacity(BUILD_ROUNDS);
        for _ in 0..BUILD_ROUNDS {
            let start = Instant::now();
            black_box(lower_spec(black_box(&rs)));
            lower.push(start.elapsed().as_nanos() as f64);
            let start = Instant::now();
            for g in &cdfgs {
                black_box(synthesize_behavior(black_box(g), model));
            }
            synth.push(start.elapsed().as_nanos() as f64);
        }
        let (lower, synth) = (median(lower), median(synth));
        lower_total += lower;
        synth_total += synth;
        println!(
            "{:>6}: lower_spec {lower:>10.0} ns, synthesize {synth:>10.0} ns ({:.2}x)",
            entry.name,
            synth / lower
        );
        if i > 0 {
            entries.push(',');
        }
        write!(
            entries,
            "\n      {{\"spec\": \"{}\", \"behaviors\": {}, \"lower_spec_ns\": {lower:.0}, \
             \"synthesize_ns\": {synth:.0}, \"synthesis_over_lowering\": {:.3}}}",
            entry.name,
            cdfgs.len(),
            synth / lower
        )
        .expect("write to string");
    }
    (entries, lower_total, synth_total)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr3.json".to_string());
    let objectives = Objectives::new();

    let mut entries = String::new();
    for (i, &(behaviors, variables)) in [(50usize, 50usize), (500, 500), (5000, 5000)]
        .iter()
        .enumerate()
    {
        let nodes = behaviors + variables;
        let (design, part) = DesignGenerator::new(99)
            .behaviors(behaviors)
            .variables(variables)
            .processors(3)
            .memories(2)
            .buses(2)
            .build();
        let (baseline, incremental, full) = measure(&design, &part, &objectives);
        let speedup = baseline / incremental;
        println!(
            "{nodes:>6} nodes: baseline {baseline:>12.1} ns/eval, compiled incremental \
             {incremental:>12.1} ns/eval, compiled full {full:>12.1} ns/eval \
             ({speedup:.2}x incremental speedup)"
        );
        if i > 0 {
            entries.push(',');
        }
        write!(
            entries,
            "\n    {{\"nodes\": {nodes}, \
             \"baseline_incremental_ns_per_eval\": {baseline:.1}, \
             \"compiled_incremental_ns_per_eval\": {incremental:.1}, \
             \"compiled_full_ns_per_eval\": {full:.1}, \
             \"incremental_speedup\": {speedup:.3}}}"
        )
        .expect("write to string");
    }

    let (build_entries, lower_total, synth_total) = build_record();
    let ratio = synth_total / lower_total;
    println!("corpus: synthesis {ratio:.2}x lowering (ceiling {SYNTHESIS_FLOOR}x)");

    let json = format!(
        "{{\n  \"bench\": \"pr3_compiled_speedup\",\n  \"workload\": \
         \"move one node cyclically then recompute full cost, per evaluation\",\n  \
         \"moves_per_round\": {MOVES},\n  \"rounds\": {ROUNDS},\n  \
         \"sizes\": [{entries}\n  ],\n  \"build\": {{\n    \"workload\": \
         \"pre-synthesis of every corpus behavior for the first standard-library ASIC model, \
         vs lowering the spec\",\n    \"rounds\": {BUILD_ROUNDS},\n    \
         \"specs\": [{build_entries}\n    ],\n    \
         \"corpus_synthesis_over_lowering\": {ratio:.3},\n    \
         \"asserted_ceiling\": {SYNTHESIS_FLOOR:.1}\n  }}\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
    assert!(
        ratio <= SYNTHESIS_FLOOR,
        "corpus synthesis takes {ratio:.2}x lowering, above the {SYNTHESIS_FLOOR}x ceiling"
    );
}
