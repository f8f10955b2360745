//! The flow-pass driver: runs the dataflow lints (`A006`–`A009`) over a
//! [`FlowProgram`], bottom-up, with per-behavior result caching.
//!
//! Behaviors are solved callee-first so each call site sees its callee's
//! return-range summary. Per behavior the driver computes one interval
//! fixpoint ([`solve_values`]) shared by `A006` and `A009`, plus the two
//! bitset fixpoints for `A007` and `A008`. Raw findings are stored
//! *span-less* and keyed by the behavior's structural hash (plus the
//! fixpoint cap and every callee summary), so an edit session re-solves
//! only behaviors whose structure — or whose callees' ranges — actually
//! changed; spans and lint levels are re-attached from the current
//! program on every materialization, which is why reusing a cache entry
//! is bit-identical to a cold run.
//!
//! A behavior that exceeds the fixpoint visit cap is refused *typed*:
//! its summary degrades to ⊤ and it reports no flow findings. Callers
//! that want the refusal itself surface it through
//! [`check_flow_bounded`](crate::check_flow_bounded).

use crate::dataflow::AnalysisError;
use crate::domains::{solve_values, summarize_returns, Interval, Summaries};
use crate::lint::{AnalysisConfig, LintId, LintLevel};
use crate::report::Finding;
use crate::{constcond, deadstore, range, uninit};
use slif_speclang::FlowProgram;
use std::collections::HashMap;

/// How many flow passes the driver owns (`A006`, `A007`, `A008`, `A009`).
pub(crate) const FLOW_PASSES: usize = 4;

/// A finding before materialization: no span, no level, node index into
/// the behavior's flow graph rather than a design node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RawFinding {
    pub lint: LintId,
    pub node: u32,
    pub message: String,
}

/// One behavior's cached solve: the inputs fingerprint, the return-range
/// summary callers consume, and the raw findings per flow pass.
#[derive(Debug, Clone)]
struct BehaviorEntry {
    key: u64,
    summary: Interval,
    raw: [Vec<RawFinding>; FLOW_PASSES],
}

/// Per-behavior cache, keyed by behavior name. Owned by
/// [`AnalysisMemo`](crate::AnalysisMemo); a cold run uses a throwaway.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowCache {
    entries: HashMap<String, BehaviorEntry>,
}

/// Findings and suppressed counts per flow pass, in `A006`…`A009` order.
pub(crate) struct FlowResults {
    pub passes: [(Vec<Finding>, usize); FLOW_PASSES],
}

/// 64-bit FNV-1a over the solve inputs of one behavior.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn interval(&mut self, v: Interval) {
        self.u64(v.lo as u64);
        self.u64((v.lo >> 64) as u64);
        self.u64(v.hi as u64);
        self.u64((v.hi >> 64) as u64);
    }
}

/// What one behavior's solve depends on: its own structure, the visit
/// cap, and the ranges its callees can return. Everything else (spans,
/// levels, suppressions) is applied at materialization.
fn entry_key(b: &slif_speclang::FlowBehavior, cap: u32, summaries: &Summaries) -> u64 {
    let mut h = Fnv::new();
    h.u64(b.hash);
    h.u64(u64::from(cap));
    for callee in b.callees() {
        let s = summaries.get(callee).copied().unwrap_or(Interval::TOP);
        h.interval(s);
    }
    h.0
}

/// Solves one behavior from scratch. A visit-cap refusal degrades to a
/// ⊤ summary and no findings: the analysis stays total.
fn solve_behavior(
    b: &slif_speclang::FlowBehavior,
    summaries: &Summaries,
    cap: u32,
    key: u64,
) -> BehaviorEntry {
    match solve_values(b, summaries, cap) {
        Ok(states) => BehaviorEntry {
            key,
            summary: summarize_returns(b, &states, summaries),
            raw: [
                range::check(b, &states, summaries),
                uninit::check(b, cap).unwrap_or_default(),
                deadstore::check(b, cap).unwrap_or_default(),
                constcond::check(b, &states, summaries),
            ],
        },
        Err(_) => BehaviorEntry {
            key,
            summary: Interval::TOP,
            raw: [const { Vec::new() }; FLOW_PASSES],
        },
    }
}

/// Runs the four flow passes over every behavior, reusing `cache`
/// entries whose inputs fingerprint is unchanged. The cache is replaced
/// with this run's entries, so behaviors deleted from the spec are
/// pruned. Materialization order is deterministic: pass-major, then
/// behavior declaration order, then flow-node order.
pub(crate) fn run_flow_passes(
    flow: &FlowProgram,
    config: &AnalysisConfig,
    mut cache: Option<&mut FlowCache>,
) -> FlowResults {
    let cap = config.max_fixpoint_visits;
    let mut summaries = Summaries::with_capacity(flow.behaviors.len());
    let mut entries = HashMap::with_capacity(flow.behaviors.len());
    // Hits move out of the old cache, name and all: nothing is cloned.
    let mut old = cache.as_deref_mut().map(std::mem::take).unwrap_or_default().entries;
    for i in flow.bottom_up_order() {
        let b = &flow.behaviors[i];
        let key = entry_key(b, cap, &summaries);
        let (name, entry) = match old.remove_entry(&b.name) {
            Some((name, hit)) if hit.key == key => (name, hit),
            _ => (b.name.clone(), solve_behavior(b, &summaries, cap, key)),
        };
        summaries.insert(&b.name, entry.summary);
        entries.insert(name, entry);
    }

    // One lookup per behavior, shared by the four passes.
    let by_behavior: Vec<_> = flow.behaviors.iter().map(|b| entries.get(&b.name)).collect();
    let mut passes: [(Vec<Finding>, usize); FLOW_PASSES] =
        [const { (Vec::new(), 0) }; FLOW_PASSES];
    for (p, (findings, suppressed)) in passes.iter_mut().enumerate() {
        for (b, entry) in flow.behaviors.iter().zip(&by_behavior) {
            let Some(entry) = entry else {
                continue;
            };
            for raw in &entry.raw[p] {
                if flow.suppressions.behavior_allows(&b.name, raw.lint.code()) {
                    *suppressed += 1;
                    continue;
                }
                match config.effective_level(raw.lint) {
                    LintLevel::Allow => *suppressed += 1,
                    level => findings.push(Finding {
                        lint: raw.lint,
                        level,
                        message: raw.message.clone(),
                        node: None,
                        channel: None,
                        span: b.nodes.get(raw.node as usize).map(|n| n.span),
                    }),
                }
            }
        }
    }

    if let Some(c) = cache {
        c.entries = entries;
    }
    FlowResults { passes }
}

/// Bottom-up boundedness sweep: `Err` on the first behavior whose
/// fixpoint exceeds the visit cap, naming the behavior and the cap.
/// This is the typed-refusal surface behind
/// [`check_flow_bounded`](crate::check_flow_bounded).
pub(crate) fn check_bounded(flow: &FlowProgram, cap: u32) -> Result<(), AnalysisError> {
    let mut summaries = Summaries::new();
    for i in flow.bottom_up_order() {
        let b = &flow.behaviors[i];
        let states = solve_values(b, &summaries, cap)?;
        uninit::check(b, cap)?;
        deadstore::check(b, cap)?;
        summaries.insert(&b.name, summarize_returns(b, &states, &summaries));
    }
    Ok(())
}
