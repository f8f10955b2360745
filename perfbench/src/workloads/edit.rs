//! `edit_session`: one [`EditSession`] over a seeded ~4k-node spec, fed
//! a seeded edit stream: ~80% one-procedure body edits (Patched tier),
//! ~15% topology edits where a process writes a different variable
//! (Recompiled tier), ~5% a syntax break (Deferred tier) followed by its
//! fix. Each `apply_edit` is one op. Opening the session is set-up.

use super::raised_parse_limits;
use crate::inputs::{edit_stream, near, synth_spec, EditKind, PlannedEdit};
use crate::rng::Rng;
use crate::stats::{median, ms};
use crate::{repeated_setup, Config, Outcome};
use slif_analyze::{analyze_compiled_memoized_with_flow, AnalysisDirt, AnalysisMemo, SourceMap};
use slif_core::{CompiledDesign, Design};
use slif_session::{EditDelta, EditSession, RecomputeTier, SessionConfig, SessionUpdate};
use slif_speclang::{parse_with_limits, reparse_with_edit, FlowProgram};
use std::time::Instant;

/// The session's settings: the defaults, with the parse caps raised.
/// Under the default caps the dirty-region reparse gives up on sources
/// longer than 256 KiB, and the ~4k-node spec sits near that size, so
/// the edit tier's cost would depend on which side of it a seed lands.
fn session_config() -> SessionConfig {
    SessionConfig {
        parse_limits: raised_parse_limits(),
        ..SessionConfig::default()
    }
}

/// Trace replays run on every this-many-th body edit.
const REPLAY_EVERY: usize = 10;

/// The tier an edit of `kind` must land on. A fix re-parses the whole
/// (previously broken) text, but the graph is the one before the break,
/// so the estimator is patched, not rebuilt.
fn intended(kind: EditKind) -> RecomputeTier {
    match kind {
        EditKind::Body | EditKind::Fix => RecomputeTier::Patched,
        EditKind::Topology => RecomputeTier::Recompiled,
        EditKind::Break => RecomputeTier::Deferred,
    }
}

/// The recompute tiers with their metric names, in report order.
const TIERS: [(RecomputeTier, &str); 3] = [
    (RecomputeTier::Patched, "patched"),
    (RecomputeTier::Recompiled, "recompiled"),
    (RecomputeTier::Deferred, "deferred"),
];

/// The oracles for one edit's update.
fn check_update(edit: &PlannedEdit, update: &SessionUpdate, revision: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if update.tier != intended(edit.kind) {
        problems.push(format!(
            "revision {revision}: {:?} edit landed on {:?}, not {:?}",
            edit.kind,
            update.tier,
            intended(edit.kind)
        ));
    }
    if update.clean == (edit.kind == EditKind::Break) {
        problems.push(format!(
            "revision {revision}: {:?} edit left the text {}",
            edit.kind,
            if update.clean { "clean" } else { "broken" }
        ));
    }
    if update.revision != revision {
        problems.push(format!(
            "revision {revision}: session reports revision {}",
            update.revision
        ));
    }
    problems
}

/// Whether the session's reports equal a cold open of its current text.
fn matches_cold(session: &EditSession) -> Option<String> {
    let (cold, _) = EditSession::open(session.source(), session_config());
    if cold.estimate() != session.estimate() || cold.analysis() != session.analysis() {
        return Some(format!(
            "revision {}: reports differ from a cold open of the same text",
            session.revision()
        ));
    }
    None
}

/// Trace-only replays around one body edit: the dirty-region reparse and
/// flow lowering of the edited AST, then memoized re-analysis under
/// body-edit dirt (channel frequencies and flow).
struct Replays {
    reparse_ms: Vec<f64>,
    flow_ms: Vec<f64>,
    memoized_ms: Vec<f64>,
    passes_run: u64,
    passes_reused: u64,
}

impl Replays {
    fn before(&mut self, out: &mut Outcome, session: &EditSession, edit: &PlannedEdit) {
        let tr = &mut out.tracer;
        let span = tr.begin("replay");
        let limits = raised_parse_limits();
        let source = session.source();
        let ast = tr
            .time("speclang.parse", || parse_with_limits(source, &limits))
            .expect("a clean session's text parses");
        let delta = EditDelta::new(edit.start, edit.end, edit.text.clone());
        let start = Instant::now();
        let reparse = tr
            .time("speclang.reparse", || {
                reparse_with_edit(source, &ast, &delta, &limits)
            })
            .expect("a planned edit is in bounds");
        self.reparse_ms.push(ms(start.elapsed()));
        let start = Instant::now();
        let flow = tr.time("speclang.edit_flow_lower", || {
            FlowProgram::from_spec(&reparse.spec)
        });
        self.flow_ms.push(ms(start.elapsed()));
        std::hint::black_box(flow);
        tr.end(span);
    }

    fn after(&mut self, out: &mut Outcome, before: &(String, Design), after: &EditSession) {
        let tr = &mut out.tracer;
        let span = tr.begin("replay");
        let (before_source, d0) = before;
        let (Some(d1), Some(part)) = (after.design(), after.partition()) else {
            tr.end(span);
            return;
        };
        let cfg = session_config().analysis;
        let flow_of = |src: &str| {
            FlowProgram::from_spec(
                &parse_with_limits(src, &raised_parse_limits()).expect("clean text parses"),
            )
        };
        let (cd0, cd1) = (CompiledDesign::compile(d0), CompiledDesign::compile(d1));
        let (flow0, flow1) = (flow_of(before_source), flow_of(after.source()));
        let empty = SourceMap::default();
        let mut memo = AnalysisMemo::new();
        let _ = analyze_compiled_memoized_with_flow(
            &cd0,
            Some(part),
            &cfg,
            &empty,
            Some(&flow0),
            &mut memo,
            &AnalysisDirt::all(),
        );
        let (run0, reused0) = (memo.passes_run(), memo.passes_reused());
        let mut dirt = AnalysisDirt::none();
        dirt.chan_freqs = true;
        dirt.flow = true;
        let start = Instant::now();
        let report = tr.time("analyze.memoized", || {
            analyze_compiled_memoized_with_flow(
                &cd1,
                Some(part),
                &cfg,
                &empty,
                Some(&flow1),
                &mut memo,
                &dirt,
            )
        });
        self.memoized_ms.push(ms(start.elapsed()));
        std::hint::black_box(report);
        self.passes_run += memo.passes_run() - run0;
        self.passes_reused += memo.passes_reused() - reused0;
        tr.end(span);
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, epoch: Instant) -> Outcome {
    let mut out = Outcome::new(cfg.trace, epoch);
    let mut rng = Rng::new(cfg.seed, 2);
    let target = near(&mut rng, cfg.sizes.edit_nodes);
    let spec = synth_spec(&mut rng, target);
    let stream = edit_stream(&mut rng, &spec, cfg.sizes.edit_stream);
    let ((mut session, opened), setup) = repeated_setup(
        &cfg.sizes,
        &mut out.clock,
        || {
            out.tracer.time("setup", || {
                EditSession::open(spec.source.clone(), session_config())
            })
        },
        drop,
    );
    out.setup_s = setup.ref_s;
    if !opened.clean {
        out.judge(vec![format!(
            "the generated spec does not open clean: {:?}",
            opened.diagnostics
        )]);
        return out;
    }
    let nodes = session.design().map_or(0, |d| d.graph().node_count());
    let findings = session.analysis().map_or(0, |a| a.len());
    let rebuilds_at_open = session.full_rebuilds();
    let mut by_tier: [Vec<f64>; 3] = Default::default();
    let mut dirty = Vec::new();
    let mut replays = Replays {
        reparse_ms: Vec::new(),
        flow_ms: Vec::new(),
        memoized_ms: Vec::new(),
        passes_run: 0,
        passes_reused: 0,
    };
    let mut check_due = false;
    let mut bodies = 0usize;
    for (i, edit) in stream.iter().enumerate() {
        if out.busy_s >= cfg.seconds && i >= cfg.sizes.edit_min {
            break;
        }
        let revision = i as u64 + 1;
        let replay = cfg.trace && edit.kind == EditKind::Body && {
            bodies += 1;
            bodies % REPLAY_EVERY == 1
        };
        let before = replay.then(|| {
            replays.before(&mut out, &session, edit);
            let design = session
                .design()
                .expect("a clean session has a design")
                .clone();
            (session.source().to_owned(), design)
        });
        out.tracer.set_op(revision);
        let span = out.tracer.begin("op");
        let delta = EditDelta::new(edit.start, edit.end, edit.text.clone());
        out.clock.start();
        let update = out
            .tracer
            .time("session.apply_edit", || session.apply_edit(&delta));
        let lap = out.clock.stop();
        out.tracer.end(span);
        out.tracer.set_op(0);
        out.record(lap);
        out.work += 1.0;
        let update = match update {
            Ok(update) => update,
            Err(e) => {
                out.judge(vec![format!("revision {revision}: edit refused: {e}")]);
                break;
            }
        };
        let tier = TIERS
            .iter()
            .position(|&(t, _)| t == update.tier)
            .expect("every tier is listed");
        by_tier[tier].push(lap.ref_s * 1e3);
        if update.tier == RecomputeTier::Patched {
            dirty.push(update.dirty_nodes as f64);
        }
        let mut problems = check_update(edit, &update, revision);
        check_due |= revision.is_multiple_of(cfg.sizes.edit_check_every);
        if check_due && update.clean {
            check_due = false;
            problems.extend(matches_cold(&session));
        }
        if let Some(before) = before {
            if update.tier == RecomputeTier::Patched {
                replays.after(&mut out, &before, &session);
            }
        }
        out.judge(problems);
    }
    out.summary.push(format!(
        "edit_session: {nodes} nodes, {findings} findings at open, {} edits, edit_p50_ms {:.3}, edit_p95_ms {:.3} (n={}) \
         at reference speed ({:.2} edits/s wall-clock), patched {} / recompiled {} / deferred {}, failed_share {:.4}",
        out.attempted,
        median(&out.ops_ms),
        crate::stats::percentile(&out.ops_ms, 0.95),
        out.ops_ms.len(),
        out.rates().0,
        by_tier[0].len(),
        by_tier[1].len(),
        by_tier[2].len(),
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    if cfg.trace {
        let l = &mut out.layers;
        for (i, (_, name)) in TIERS.iter().enumerate() {
            l.put(format!("session.{name}_p50_ms"), median(&by_tier[i]), "ms");
            l.put(
                format!("session.tier_{name}"),
                by_tier[i].len() as f64,
                "count",
            );
        }
        l.put(
            "session.dirty_nodes",
            dirty.iter().sum::<f64>() / dirty.len().max(1) as f64,
            "count",
        );
        l.put(
            "session.full_rebuilds",
            (session.full_rebuilds() - rebuilds_at_open) as f64,
            "count",
        );
        l.put("core.nodes", nodes as f64, "count");
        l.put(
            "speclang.parse_ms",
            median(&out.tracer.durations_ms("speclang.parse")),
            "ms",
        );
        l.put("speclang.reparse_ms", median(&replays.reparse_ms), "ms");
        l.put(
            "speclang.edit_flow_lower_ms",
            median(&replays.flow_ms),
            "ms",
        );
        l.put("analyze.memoized_ms", median(&replays.memoized_ms), "ms");
        l.put("analyze.passes_run", replays.passes_run as f64, "count");
        l.put(
            "analyze.passes_reused",
            replays.passes_reused as f64,
            "count",
        );
    }
    out
}
