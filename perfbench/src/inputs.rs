//! Seeded input generation. Every input a workload hands the program is a
//! pure function of the seed: the synthetic specification family, the
//! edit stream and the serving request plan.
//!
//! Synthetic specifications use fixed-width names (`v00042`, `s00007`,
//! `F00013`, `P00120`) and fixed-width edit sites, so an edit replaces
//! bytes with the same number of bytes and every site keeps its offset
//! for the life of a session.

use crate::rng::Rng;
use slif_serve::wire::Endpoint;
use std::fmt::Write as _;

/// A generated specification and its edit sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenSpec {
    /// Specification source.
    pub source: String,
    /// Byte offset of the two digits of each procedure's branch
    /// probability (`prob 0.NN`).
    pub literal_sites: Vec<usize>,
    /// Each procedure's current branch-probability digits.
    pub literals: Vec<u8>,
    /// Byte offset of each process's six-character sink variable name;
    /// process `p` starts out writing sink `p`.
    pub sink_sites: Vec<usize>,
    /// Byte offset of the `;` ending each process's `wait`.
    pub wait_semis: Vec<usize>,
}

/// A synthetic specification of about `target` design nodes: 30% shared
/// variables, 10% procedures (acyclic call chains), 30% processes and
/// one sink variable per process. Each process reads shared variables,
/// loops, branches, may call a procedure, and writes its own sink, so
/// processes race only through the procedures they share.
pub fn synth_spec(rng: &mut Rng, target: usize) -> GenSpec {
    let vars = (target * 30 / 100).max(4);
    let procs = (target * 10 / 100).max(2);
    let processes = (target.saturating_sub(vars + procs) / 2).max(2);
    let mut s = String::with_capacity(target * 90);
    s.push_str("system Synth;\n");
    for v in 0..vars {
        let width = [8, 16, 16, 32][rng.below(4)];
        let _ = writeln!(s, "var v{v:05} : int<{width}>;");
    }
    for k in 0..processes {
        let _ = writeln!(s, "var s{k:05} : int<32>;");
    }
    let mut literal_sites = Vec::with_capacity(procs);
    let mut literals = Vec::with_capacity(procs);
    for f in 0..procs {
        let (a, b, c) = (rng.below(vars), rng.below(vars), rng.below(vars));
        let lit = 10 + rng.below(90) as u8;
        let _ = write!(
            s,
            "proc F{f:05}() {{\n  v{a:05} = v{b:05} + {};\n  if v{a:05} > {} prob 0.",
            1 + rng.below(9),
            rng.below(64)
        );
        literal_sites.push(s.len());
        literals.push(lit);
        let _ = writeln!(s, "{lit} {{ v{c:05} = v{a:05} - 1; }}");
        if f > 0 && rng.below(10) < 3 {
            let _ = writeln!(s, "  call F{:05}();", rng.below(f));
        }
        s.push_str("}\n");
    }
    let mut sink_sites = Vec::with_capacity(processes);
    let mut wait_semis = Vec::with_capacity(processes);
    for p in 0..processes {
        let (r, r2) = (rng.below(vars), rng.below(vars));
        let _ = write!(
            s,
            "process P{p:05} {{\n  var t : int<16>;\n  t = v{r:05} + 1;\n  \
             for j in 0 .. {} {{ t = t + v{r2:05}; }}\n",
            1 + rng.below(4)
        );
        if rng.below(2) == 0 {
            let _ = writeln!(
                s,
                "  if t > {} prob 0.5 {{ call F{:05}(); }}",
                rng.below(16),
                rng.below(procs)
            );
        }
        s.push_str("  ");
        sink_sites.push(s.len());
        let _ = write!(
            s,
            "s{p:05} = t + {};\n  wait {}",
            10 + rng.below(90),
            1 + rng.below(9)
        );
        wait_semis.push(s.len());
        s.push_str(";\n}\n");
    }
    GenSpec {
        source: s,
        literal_sites,
        literals,
        sink_sites,
        wait_semis,
    }
}

/// What an edit is meant to exercise, and so which recompute tier it
/// must land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EditKind {
    /// A procedure's branch probability changes: a one-procedure body
    /// edit that moves access frequencies but not the graph.
    Body,
    /// A process writes a different sink variable: the graph changes.
    Topology,
    /// A process's `wait` loses its `;`: the text no longer parses.
    Break,
    /// The `;` comes back.
    Fix,
}

/// One byte-range replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedEdit {
    /// Why the edit is in the stream.
    pub kind: EditKind,
    /// First replaced byte.
    pub start: usize,
    /// One past the last replaced byte.
    pub end: usize,
    /// Replacement text, as long as the replaced range.
    pub text: String,
}

/// The most processes an edit stream leaves writing another's sink.
const MAX_AWAY: usize = 1;

/// A seeded stream of at least `len` edits over `spec`, built from
/// blocks of 20 events in seeded order: 16 body edits, 3 topology edits
/// and one break-then-fix pair. Fixed proportions keep the tier mix the
/// same for every seed and every run length. Every edit changes the
/// text: a body edit picks a new probability, a topology edit moves a
/// process to another process's sink or back to its own.
pub fn edit_stream(rng: &mut Rng, spec: &GenSpec, len: usize) -> Vec<PlannedEdit> {
    let mut literals = spec.literals.clone();
    let mut sinks: Vec<usize> = (0..spec.sink_sites.len()).collect();
    let mut out = Vec::with_capacity(len + 21);
    while out.len() < len {
        let mut block: Vec<EditKind> = [EditKind::Body; 16]
            .into_iter()
            .chain([EditKind::Topology; 3])
            .chain([EditKind::Break])
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        for kind in block {
            match kind {
                EditKind::Body => {
                    let f = rng.below(literals.len());
                    let lit = loop {
                        let l = 10 + rng.below(90) as u8;
                        if l != literals[f] {
                            break l;
                        }
                    };
                    literals[f] = lit;
                    let at = spec.literal_sites[f];
                    out.push(PlannedEdit {
                        kind,
                        start: at,
                        end: at + 2,
                        text: lit.to_string(),
                    });
                }
                EditKind::Topology => {
                    // At most MAX_AWAY processes write another's sink at a
                    // time, so the races these edits create stay bounded.
                    let away: Vec<usize> = (0..sinks.len()).filter(|&p| sinks[p] != p).collect();
                    let (p, sink) = if away.len() >= MAX_AWAY {
                        let p = away[rng.below(away.len())];
                        (p, p)
                    } else {
                        let p = loop {
                            let p = rng.below(sinks.len());
                            if sinks[p] == p {
                                break p;
                            }
                        };
                        let sink = loop {
                            let k = rng.below(sinks.len());
                            if k != p {
                                break k;
                            }
                        };
                        (p, sink)
                    };
                    sinks[p] = sink;
                    let at = spec.sink_sites[p];
                    out.push(PlannedEdit {
                        kind,
                        start: at,
                        end: at + 6,
                        text: format!("s{sink:05}"),
                    });
                }
                EditKind::Break | EditKind::Fix => {
                    let at = spec.wait_semis[rng.below(spec.wait_semis.len())];
                    for (kind, text) in [(EditKind::Break, "?"), (EditKind::Fix, ";")] {
                        out.push(PlannedEdit {
                            kind,
                            start: at,
                            end: at + 1,
                            text: text.to_owned(),
                        });
                    }
                }
            }
        }
    }
    out
}

/// `target` scaled by a seeded factor in `[0.995, 1.005)`: sizes stay
/// near their rung while still differing between seeds.
pub fn near(rng: &mut Rng, target: usize) -> usize {
    (target as f64 * (0.995 + 0.01 * rng.unit())) as usize
}

/// One request of the serving plan. Spec and design indices refer to the
/// workload's input tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeReq {
    /// A job endpoint over spec `spec`, exploring with `seed`.
    Job {
        /// The endpoint.
        endpoint: Endpoint,
        /// Index into the spec table.
        spec: usize,
        /// Exploration seed header.
        seed: u64,
    },
    /// `POST /designs` with design `design` as `.slifb`.
    DesignPost {
        /// Index into the design table.
        design: usize,
    },
    /// `GET /designs/{hash}` of design `design`.
    DesignGet {
        /// Index into the design table.
        design: usize,
        /// Ask for `.slifb` (else `.slif` text).
        binary: bool,
    },
    /// `POST /sessions` over session spec `spec`.
    SessionOpen {
        /// Index into the session-spec table.
        spec: usize,
    },
    /// `POST /sessions/{id}/edit` on the client's current session.
    SessionEdit {
        /// First replaced byte.
        start: usize,
        /// One past the last replaced byte.
        end: usize,
        /// Replacement text.
        text: String,
    },
}

impl ServeReq {
    /// The request kind, as used in per-kind metric names.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeReq::Job { endpoint, .. } => match endpoint {
                Endpoint::Parse => "parse",
                Endpoint::Estimate => "estimate",
                Endpoint::Explore => "explore",
                Endpoint::Analyze => "analyze",
            },
            ServeReq::DesignPost { .. } => "design_post",
            ServeReq::DesignGet { .. } => "design_get",
            ServeReq::SessionOpen { .. } => "session_open",
            ServeReq::SessionEdit { .. } => "session_edit",
        }
    }
}

/// Every serving request kind, in report order.
pub const SERVE_KINDS: [&str; 8] = [
    "parse",
    "estimate",
    "explore",
    "analyze",
    "design_post",
    "design_get",
    "session_open",
    "session_edit",
];

/// Exploration seeds a plan draws from, so repeated requests are cache
/// reads and their expected bodies can be computed once.
pub const EXPLORE_SEEDS: u64 = 4;

/// A seeded closed-loop request plan of at least `len` requests for one
/// client.
///
/// The plan is a run of decks. A deck holds each kind of [`SERVE_KINDS`]
/// `specs` times, in a seeded order: the kinds are equally common, as
/// the load generator draws its clean combinations, and the mix is
/// chosen, not measured from any real traffic. Within a deck, jobs take
/// each of the `specs` job specs once, design requests each of the
/// `designs` postable designs in turn, `GET`s alternate between the two
/// encodings, and sessions alternate between the `sessions` session
/// specs, whose literal sites edits rewrite. A run that stops anywhere
/// has thereby asked for each kind and spec within a deck of equally
/// often. An edit that comes before its client's first open is an open.
pub fn serve_plan(
    rng: &mut Rng,
    len: usize,
    specs: usize,
    designs: usize,
    sessions: &[GenSpec],
) -> Vec<ServeReq> {
    let mut plan = Vec::with_capacity(len);
    let mut current: Option<usize> = None;
    let (mut design, mut binary, mut opened) = (0, false, 0);
    while plan.len() < len {
        let mut deck: Vec<(&str, usize)> = SERVE_KINDS
            .iter()
            .flat_map(|&kind| (0..specs).map(move |spec| (kind, spec)))
            .collect();
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.below(i + 1));
        }
        for (kind, spec) in deck {
            let kind = match (kind, current) {
                ("session_edit", None) => "session_open",
                _ => kind,
            };
            let req = match kind {
                "parse" => ServeReq::Job {
                    endpoint: Endpoint::Parse,
                    spec,
                    seed: 0,
                },
                "estimate" => ServeReq::Job {
                    endpoint: Endpoint::Estimate,
                    spec,
                    seed: 0,
                },
                "explore" => ServeReq::Job {
                    endpoint: Endpoint::Explore,
                    spec,
                    seed: rng.below(EXPLORE_SEEDS as usize) as u64,
                },
                "analyze" => ServeReq::Job {
                    endpoint: Endpoint::Analyze,
                    spec,
                    seed: 0,
                },
                "design_post" => {
                    design = (design + 1) % designs;
                    ServeReq::DesignPost { design }
                }
                "design_get" => {
                    binary = !binary;
                    ServeReq::DesignGet {
                        design: spec % designs,
                        binary,
                    }
                }
                "session_open" => {
                    opened += 1;
                    let s = opened % sessions.len();
                    current = Some(s);
                    ServeReq::SessionOpen { spec: s }
                }
                _ => {
                    let g = &sessions[current.expect("an edit follows an open")];
                    let at = g.literal_sites[rng.below(g.literal_sites.len())];
                    ServeReq::SessionEdit {
                        start: at,
                        end: at + 2,
                        text: (10 + rng.below(90)).to_string(),
                    }
                }
            };
            plan.push(req);
        }
    }
    plan
}
