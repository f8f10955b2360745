//! Seeded end-to-end and per-layer benchmark for the SLIF crates.
//!
//! One command runs one workload for one seed: it generates the inputs
//! from the seed, sets up (several times, reporting the median), runs
//! timed ops for the requested seconds, checks every output against an
//! oracle, and reports end-to-end metrics. With tracing on it instead
//! records a span around each layer call and reports per-layer metrics;
//! replays of single layer calls happen only then. See `README.md` for
//! the workloads, the metric glossary and the first baseline.

pub mod calib;
pub mod inputs;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

use calib::{HostClock, Lap};
use stats::Metrics;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: every traced run reports each of them. A layer the
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("speclang.parse_ms", "ms"),
    ("speclang.resolve_ms", "ms"),
    ("speclang.flow_lower_ms", "ms"),
    ("speclang.reparse_ms", "ms"),
    ("speclang.edit_flow_lower_ms", "ms"),
    ("frontend.build_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.nodes", "count"),
    ("estimate.report_ms", "ms"),
    ("estimate.incremental_eval_ns", "ns"),
    ("estimate.full_eval_ns", "ns"),
    ("estimate.full_over_incremental", "x"),
    ("explore.anneal_ms", "ms"),
    ("explore.evaluations", "count"),
    ("analyze.graph_ms", "ms"),
    ("analyze.full_ms", "ms"),
    ("analyze.memoized_ms", "ms"),
    ("analyze.passes_run", "count"),
    ("analyze.passes_reused", "count"),
    ("formats.slifb_write_mb_s", "MB/s"),
    ("formats.slifb_read_mb_s", "MB/s"),
    ("formats.slif_write_mb_s", "MB/s"),
    ("formats.slif_read_mb_s", "MB/s"),
    ("formats.slifb_bytes", "bytes"),
    ("store.put_ms", "ms"),
    ("store.get_compiled_ms", "ms"),
    ("store.journal_pair_us", "us"),
    ("store.cache_hit_share", "share"),
    ("session.patched_p50_ms", "ms"),
    ("session.recompiled_p50_ms", "ms"),
    ("session.deferred_p50_ms", "ms"),
    ("session.dirty_nodes", "count"),
    ("session.tier_patched", "count"),
    ("session.tier_recompiled", "count"),
    ("session.tier_deferred", "count"),
    ("session.full_rebuilds", "count"),
    ("runtime.inline_parse_us", "us"),
    ("runtime.inline_estimate_us", "us"),
    ("runtime.inline_explore_us", "us"),
    ("runtime.inline_analyze_us", "us"),
    ("runtime.inline_design_post_us", "us"),
    ("runtime.inline_design_get_us", "us"),
    ("runtime.inline_session_open_us", "us"),
    ("runtime.inline_session_edit_us", "us"),
    ("serve.parse_p50_ms", "ms"),
    ("serve.parse_p99_ms", "ms"),
    ("serve.estimate_p50_ms", "ms"),
    ("serve.estimate_p99_ms", "ms"),
    ("serve.explore_p50_ms", "ms"),
    ("serve.explore_p99_ms", "ms"),
    ("serve.analyze_p50_ms", "ms"),
    ("serve.analyze_p99_ms", "ms"),
    ("serve.design_post_p50_ms", "ms"),
    ("serve.design_post_p99_ms", "ms"),
    ("serve.design_get_p50_ms", "ms"),
    ("serve.design_get_p99_ms", "ms"),
    ("serve.session_open_p50_ms", "ms"),
    ("serve.session_open_p99_ms", "ms"),
    ("serve.session_edit_p50_ms", "ms"),
    ("serve.session_edit_p99_ms", "ms"),
    ("runtime.jobs_shed", "count"),
    ("serve.connections_shed", "count"),
    ("trace.work_per_s", "1/s"),
    ("trace.stage_coverage", "share"),
    ("trace.span_cost_ns", "ns"),
    ("trace.spans", "count"),
    ("host.kernel_us", "us"),
];

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold spec → stored design pipeline over a synthetic family and
    /// the corpus.
    PipelineCold,
    /// One edit session fed a mixed-tier edit stream.
    EditSession,
    /// Fixed-budget simulated annealing over built designs.
    ExploreAnneal,
    /// A durable in-process server driven by a closed loop.
    ServeMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PipelineCold,
        Workload::EditSession,
        Workload::ExploreAnneal,
        Workload::ServeMixed,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineCold => "pipeline_cold",
            Workload::EditSession => "edit_session",
            Workload::ExploreAnneal => "explore_anneal",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A deliberately wrong answer, planted to prove the oracles count it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plant {
    /// Flip one byte of the first job response body `serve_mixed` reads.
    FlipResponseByte,
    /// Perturb the first annealing cost `explore_anneal` reports.
    PerturbCost,
}

/// Input sizes. [`Sizes::full`] is the benchmark; tests use
/// [`Sizes::small`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Design-node rungs of the synthetic pipeline family.
    pub pipeline_rungs: Vec<usize>,
    /// Annealing moves per temperature inside a pipeline op.
    pub pipeline_anneal_moves: u32,
    /// Design nodes of the edit-session spec.
    pub edit_nodes: usize,
    /// Planned edits (the run stops early if it uses them all).
    pub edit_stream: usize,
    /// Fewest edits a run applies, however long they take.
    pub edit_min: usize,
    /// Check the session against a cold open every this many revisions.
    pub edit_check_every: u64,
    /// Design nodes of the generated annealing design.
    pub explore_nodes: usize,
    /// Annealing moves per temperature in `explore_anneal`.
    pub explore_moves: u32,
    /// Design nodes of the large serving spec.
    pub serve_nodes: usize,
    /// Design nodes of each serving session spec.
    pub session_nodes: usize,
    /// Requests in each client's plan (the clients cycle through it).
    pub serve_plan: usize,
    /// Fewest times set-up runs; `setup_s` is the median.
    pub setup_repeats: usize,
    /// Set-up repeats until they have taken at least this many seconds.
    pub setup_min_s: f64,
}

impl Sizes {
    /// The benchmark's sizes, for a 2-core machine.
    pub fn full() -> Self {
        Self {
            pipeline_rungs: vec![2_000, 10_000, 30_000],
            pipeline_anneal_moves: 16,
            edit_nodes: 4_000,
            edit_stream: 4_000,
            edit_min: 300,
            edit_check_every: 50,
            explore_nodes: 2_000,
            explore_moves: 160,
            serve_nodes: 1_000,
            session_nodes: 150,
            serve_plan: 4_096,
            setup_repeats: 5,
            setup_min_s: 1.0,
        }
    }

    /// Tiny sizes for the benchmark's own tests.
    pub fn small() -> Self {
        Self {
            pipeline_rungs: vec![60, 120],
            pipeline_anneal_moves: 4,
            edit_nodes: 120,
            edit_stream: 120,
            edit_min: 0,
            edit_check_every: 10,
            explore_nodes: 60,
            explore_moves: 8,
            serve_nodes: 60,
            session_nodes: 40,
            serve_plan: 256,
            setup_repeats: 2,
            setup_min_s: 0.0,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// A wrong answer to plant, for the oracle tests.
    pub plant: Option<Plant>,
    /// Scratch directory for files the run writes; removed at the end.
    pub work_dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output failed an oracle.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Work units done by the timed ops (nodes, edits, evaluations,
    /// responses).
    pub work: f64,
    /// Wall-clock seconds the timed ops took.
    pub busy_s: f64,
    /// Seconds the timed ops took at the reference host speed.
    pub ref_busy_s: f64,
    /// Latency samples in milliseconds at the reference host speed, one
    /// per op (one per pass on `pipeline_cold`).
    pub ops_ms: Vec<f64>,
    /// Median set-up seconds at the reference host speed.
    pub setup_s: f64,
    /// Per-layer metrics the workload measured (traced runs).
    pub layers: Metrics,
    /// Human-readable lines naming the workload's own metrics.
    pub summary: Vec<String>,
    /// The run's spans.
    pub tracer: Tracer,
    /// The host-speed stopwatch the ops are timed with.
    pub clock: HostClock,
}

impl Outcome {
    /// An empty outcome recording spans when `trace` is set.
    pub fn new(trace: bool, epoch: Instant) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            work: 0.0,
            busy_s: 0.0,
            ref_busy_s: 0.0,
            ops_ms: Vec::new(),
            setup_s: 0.0,
            layers: Metrics::default(),
            summary: Vec::new(),
            tracer: Tracer::new(trace, epoch),
            clock: HostClock::new(),
        }
    }

    /// Adds one timed op.
    pub fn record(&mut self, lap: Lap) {
        self.busy_s += lap.raw_s;
        self.ref_busy_s += lap.ref_s;
        self.ops_ms.push(lap.ref_s * 1e3);
    }

    /// Wall-clock and reference-speed work per second, for summaries.
    pub fn rates(&self) -> (f64, f64) {
        (
            self.work / self.busy_s.max(1e-9),
            self.work / self.ref_busy_s.max(1e-9),
        )
    }

    /// Counts one checked op; `problems` lists what its oracles found.
    pub fn judge(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.keep(problems);
        }
    }

    /// Records a problem found after the ops ran, charged to one more
    /// failed op.
    pub fn fail_late(&mut self, problem: String) {
        self.failed += 1;
        self.keep(vec![problem]);
    }

    /// Keeps the first 20 failure messages.
    fn keep(&mut self, problems: Vec<String>) {
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(problems.into_iter().take(room));
    }
}

/// Most times set-up runs, however short it is.
const MAX_SETUP_REPEATS: usize = 200;

/// Runs `setup` at least `sizes.setup_repeats` times and until the runs
/// have taken `sizes.setup_min_s` seconds, and returns the last result
/// with the median seconds one run took, wall-clock and at the reference
/// host speed. Earlier results go to `discard`.
pub fn repeated_setup<T>(
    sizes: &Sizes,
    clock: &mut HostClock,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, Lap) {
    let (mut raw, mut reference) = (Vec::new(), Vec::new());
    let mut last = None;
    while raw.len() < sizes.setup_repeats.max(1)
        || (raw.iter().sum::<f64>() < sizes.setup_min_s && raw.len() < MAX_SETUP_REPEATS)
    {
        if let Some(prev) = last.take() {
            discard(prev);
        }
        clock.start();
        last = Some(setup());
        let lap = clock.stop();
        raw.push(lap.raw_s);
        reference.push(lap.ref_s);
    }
    let median = Lap {
        raw_s: stats::median(&raw),
        ref_s: stats::median(&reference),
    };
    (last.expect("setup ran at least once"), median)
}

/// Runs one workload and returns its checked outcome.
pub fn run(cfg: &Config) -> Outcome {
    let epoch = Instant::now();
    std::fs::create_dir_all(&cfg.work_dir).expect("create the benchmark's work directory");
    let mut out = match cfg.workload {
        Workload::PipelineCold => workloads::pipeline::run(cfg, epoch),
        Workload::EditSession => workloads::edit::run(cfg, epoch),
        Workload::ExploreAnneal => workloads::explore::run(cfg, epoch),
        Workload::ServeMixed => workloads::serve::run(cfg, epoch),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    if cfg.trace {
        let t = &out.tracer;
        let mut covered = Vec::new();
        for op in t.spans().iter().filter(|s| s.name == "op") {
            let inner: u64 = t
                .spans()
                .iter()
                .filter(|s| s.parent == Some(op.id))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            covered.push(inner as f64 / (op.end_ns - op.start_ns).max(1) as f64);
        }
        let coverage = if covered.is_empty() {
            0.0
        } else {
            covered.iter().sum::<f64>() / covered.len() as f64
        };
        let spans = t.spans().len() as f64;
        out.layers.put("trace.stage_coverage", coverage, "share");
        out.layers.put("trace.spans", spans, "count");
        out.layers
            .put("trace.span_cost_ns", trace::span_cost_ns(), "ns");
        out.layers.put("trace.work_per_s", out.rates().1, "1/s");
        out.layers.put(
            "host.kernel_us",
            stats::median(out.clock.readings()) / 1e3,
            "us",
        );
    }
    out
}

/// The metrics a run prints: every end-to-end metric untraced, every
/// per-layer metric traced.
pub fn reported_metrics(cfg: &Config, out: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    if cfg.trace {
        for &(name, unit) in PER_LAYER {
            m.put(name, out.layers.get(name).unwrap_or(0.0), unit);
        }
    } else {
        let values = [
            out.rates().1,
            stats::percentile(&out.ops_ms, 0.50),
            stats::percentile(&out.ops_ms, 0.95),
            stats::percentile(&out.ops_ms, 0.99),
            stats::peak_rss_mb(),
            out.setup_s,
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            m.put(name, value, unit);
        }
    }
    m
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(out: &Outcome, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        s.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    s.push_str("}}");
    s
}
