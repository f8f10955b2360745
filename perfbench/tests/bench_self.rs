//! Tests of the benchmark itself: seeded inputs, oracles that count a
//! planted wrong answer, the traced run's metrics and span nesting, and
//! the host clock.
//! Workloads run at `Sizes::small()` for a fraction of a second.

use slif_perfbench::calib::{thread_cpu_s, HostClock, REFERENCE_NS};
use slif_perfbench::inputs::{edit_stream, serve_plan, synth_spec, EditKind, SERVE_KINDS};
use slif_perfbench::rng::Rng;
use slif_perfbench::{
    reported_metrics, run, Config, Outcome, Plant, Sizes, Workload, END_TO_END, PER_LAYER,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A config with a work directory of its own: tests run in parallel, and
/// each run removes its directory when it ends.
fn config(workload: Workload, trace: bool, plant: Option<Plant>) -> Config {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "test-{}-{trace}-{plant:?}-{}-{}",
            workload.name(),
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        ));
    Config {
        workload,
        seed: 11,
        seconds: 0.3,
        trace,
        sizes: Sizes::small(),
        plant,
        work_dir: dir,
    }
}

fn inputs(seed: u64) -> (String, Vec<(EditKind, usize, String)>, String) {
    let mut rng = Rng::new(seed, 2);
    let spec = synth_spec(&mut rng, 400);
    let edits = edit_stream(&mut rng, &spec, 200)
        .into_iter()
        .map(|e| (e.kind, e.start, e.text))
        .collect();
    let plan = serve_plan(&mut rng, 300, 5, 5, std::slice::from_ref(&spec));
    (spec.source, edits, format!("{plan:?}"))
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    assert_eq!(inputs(3), inputs(3));
}

#[test]
fn every_deck_of_a_serve_plan_asks_for_each_kind_equally_often() {
    let mut rng = Rng::new(5, 2);
    let spec = synth_spec(&mut rng, 400);
    let plan = serve_plan(&mut rng, 300, 5, 5, std::slice::from_ref(&spec));
    let deck = 5 * SERVE_KINDS.len();
    assert_eq!(plan.len() % deck, 0);
    for deck in plan.chunks(deck) {
        let count = |kind: &str| deck.iter().filter(|r| r.kind() == kind).count();
        for kind in &SERVE_KINDS[..6] {
            assert_eq!(count(kind), 5, "{kind}");
        }
        // An edit drawn before the client's first open becomes an open.
        assert_eq!(count("session_open") + count("session_edit"), 10);
    }
}

#[test]
fn another_seed_gives_different_inputs_of_the_same_shape() {
    let (src_a, edits_a, plan_a) = inputs(3);
    let (src_b, edits_b, plan_b) = inputs(4);
    assert_ne!(src_a, src_b);
    assert_ne!(edits_a, edits_b);
    assert_ne!(plan_a, plan_b);
    let count = |src: &str, what: &str| src.matches(what).count();
    for what in ["\nvar ", "\nproc ", "\nprocess "] {
        assert_eq!(
            count(&src_a, what),
            count(&src_b, what),
            "{what:?} count differs"
        );
    }
    assert_eq!(edits_a.len(), edits_b.len());
    for kind in [
        EditKind::Body,
        EditKind::Topology,
        EditKind::Break,
        EditKind::Fix,
    ] {
        let of = |e: &[(EditKind, usize, String)]| e.iter().filter(|x| x.0 == kind).count();
        assert_eq!(of(&edits_a), of(&edits_b), "{kind:?} share differs");
    }
}

fn failed_share(out: &Outcome) -> f64 {
    out.failed as f64 / out.attempted as f64
}

#[test]
fn every_workload_passes_its_oracles_when_nothing_is_planted() {
    for workload in Workload::ALL {
        let out = run(&config(workload, false, None));
        assert!(out.attempted > 0, "{} attempted nothing", workload.name());
        assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
    }
}

#[test]
fn a_flipped_response_byte_is_counted_as_failed() {
    let out = run(&config(
        Workload::ServeMixed,
        false,
        Some(Plant::FlipResponseByte),
    ));
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert!(failed_share(&out) > 0.0);
}

#[test]
fn a_perturbed_cost_is_counted_as_failed() {
    let out = run(&config(
        Workload::ExploreAnneal,
        false,
        Some(Plant::PerturbCost),
    ));
    assert_eq!(out.failed, 1, "{:?}", out.failures);
    assert!(failed_share(&out) > 0.0);
}

/// The metric names BENCHMARK.json declares in `section`.
fn declared(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json sits at the repository root");
    let from = json
        .find(&format!("\"{section}\""))
        .expect("the section exists");
    let body = &json[from..];
    let body = &body[..body.find(']').expect("the section's list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("a closing quote")].to_owned())
        .collect()
}

#[test]
fn runs_report_exactly_the_metrics_benchmark_json_declares() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    let layers: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layers);
    for workload in Workload::ALL {
        for (trace, names) in [(false, &e2e), (true, &layers)] {
            let cfg = config(workload, trace, None);
            let out = run(&cfg);
            assert_eq!(out.failed, 0, "{}: {:?}", workload.name(), out.failures);
            let metrics = reported_metrics(&cfg, &out);
            let reported: Vec<&str> = metrics.iter().map(|(n, _, _)| n).collect();
            let mut expected = names.to_vec();
            expected.sort_unstable();
            assert_eq!(reported, expected, "{} trace={trace}", workload.name());
            assert!(metrics.iter().all(|(_, v, _)| v.is_finite()));
        }
    }
}

#[test]
fn pipeline_stage_spans_nest_under_their_op() {
    let out = run(&config(Workload::PipelineCold, true, None));
    let spans = out.tracer.spans();
    let ops: Vec<_> = spans.iter().filter(|s| s.name == "op").collect();
    assert!(ops.len() >= 2);
    for op in &ops {
        assert!(op.op > 0 && op.parent.is_none());
        let stages: Vec<_> = spans.iter().filter(|s| s.parent == Some(op.id)).collect();
        let names: Vec<&str> = stages.iter().map(|s| s.name).collect();
        for stage in [
            "speclang.parse",
            "speclang.flow_lower",
            "speclang.resolve",
            "frontend.build",
            "core.compile",
            "estimate.report",
            "explore.anneal",
            "analyze.full",
            "formats.slifb_write",
            "formats.slifb_read",
            "formats.slif_write",
            "formats.slif_read",
            "store.put",
            "store.get_compiled",
        ] {
            assert!(names.contains(&stage), "op {} lacks {stage}", op.op);
        }
        for s in stages {
            assert_eq!(s.op, op.op);
            assert!(s.start_ns >= op.start_ns && s.end_ns <= op.end_ns);
        }
    }
    for s in spans.iter().filter(|s| s.op > 0 && s.name != "op") {
        let parent = &spans[s.parent.expect("a stage has a parent") as usize];
        assert_eq!((parent.name, parent.op), ("op", s.op));
    }
}

#[test]
fn a_host_clock_times_waits_by_the_wall_and_work_by_cpu_rescaled() {
    let mut clock = HostClock::new();
    clock.start();
    std::thread::sleep(Duration::from_millis(20));
    clock.split_waiting();
    let waited = clock.stop();
    assert!(
        (0.02..0.09).contains(&waited.ref_s) && waited.ref_s <= waited.raw_s * 1.01,
        "a wait counts its wall-clock time, not rescaled: {waited:?}"
    );

    let before = clock.readings().len();
    clock.start();
    let cpu0 = thread_cpu_s();
    let mut x = 1u64;
    while thread_cpu_s() - cpu0 < 0.02 {
        for _ in 0..1000 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
    }
    let spent = thread_cpu_s() - cpu0;
    let worked = clock.stop();
    let readings = clock.readings();
    assert_eq!(
        readings.len() - before,
        2,
        "one reading at start and one at stop"
    );
    let slowest = readings.iter().copied().fold(0.0, f64::max);
    let fastest = readings.iter().copied().fold(f64::INFINITY, f64::min);
    let factor = worked.ref_s / spent;
    assert!(
        factor >= REFERENCE_NS / slowest * 0.95 && factor <= REFERENCE_NS / fastest * 1.05,
        "work is CPU time rescaled by the kernel: {factor} from {readings:?}, {worked:?}"
    );
}
