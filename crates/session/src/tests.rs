//! Session-level bit-identity: whatever path an edit takes through the
//! tiers, the session's design, estimate, and lint reports must be `==`
//! to a cold rebuild of the current text.

use crate::{EditDelta, EditError, EditSession, RecomputeTier, SessionConfig};
use proptest::prelude::*;
use slif_analyze::{analyze_with_sources, AnalysisReport};
use slif_core::Design;
use slif_estimate::DesignReport;
use slif_frontend::{all_software_partition, build_design, try_allocate_proc_asic};
use slif_speclang::{parse_partial_with_limits, resolve, SourceMap};

const BASE: &str = concat!(
    "system Demo;\n",
    "port in1 : in int<8>;\n",
    "const K = 4;\n",
    "var shared : int<8>;\n",
    "func Helper(x : int<8>) -> int<8> {\n",
    "  return x + K;\n",
    "}\n",
    "process Main {\n",
    "  var t : int<8>;\n",
    "  t = Helper(in1);\n",
    "  shared = t;\n",
    "  wait 5;\n",
    "}\n",
    "process Aux {\n",
    "  shared = 0;\n",
    "  wait 9;\n",
    "}\n",
);

/// The from-scratch pipeline the session must be indistinguishable
/// from: parse, resolve, build (uncached), allocate, estimate, lint.
fn cold(
    source: &str,
    config: &SessionConfig,
) -> Option<(Design, DesignReport, AnalysisReport)> {
    let (spec, diags) = parse_partial_with_limits(source, &config.parse_limits);
    if !diags.is_empty() {
        return None;
    }
    let rs = resolve(spec).ok()?;
    let mut design = build_design(&rs, &config.library);
    let arch = try_allocate_proc_asic(&mut design).ok()?;
    let partition = all_software_partition(&design, arch);
    let estimate = DesignReport::compute_with(&design, &partition, config.estimator).ok()?;
    let analysis = analyze_with_sources(
        &design,
        Some(&partition),
        &config.analysis,
        &SourceMap::from_spec(rs.spec()),
    );
    Some((design, estimate, analysis))
}

/// Asserts the session's state matches a cold rebuild of its text.
fn assert_matches_cold(session: &EditSession, config: &SessionConfig, what: &str) {
    match cold(session.source(), config) {
        Some((design, estimate, analysis)) => {
            assert!(
                session.is_clean(),
                "{what}: cold pipeline succeeded but session is broken: {:?}",
                session.diagnostics()
            );
            assert_eq!(session.design(), Some(&design), "{what}: design diverged");
            assert_eq!(
                session.estimate(),
                Some(&estimate),
                "{what}: estimate diverged"
            );
            assert_eq!(
                session.analysis(),
                Some(&analysis),
                "{what}: analysis diverged"
            );
        }
        None => assert!(
            !session.is_clean(),
            "{what}: cold pipeline failed but session claims clean"
        ),
    }
}

#[test]
fn open_runs_the_full_pipeline() {
    let config = SessionConfig::default();
    let (session, update) = EditSession::open(BASE, config.clone());
    assert!(update.clean);
    assert_eq!(update.revision, 0);
    assert_eq!(update.tier, RecomputeTier::Recompiled);
    assert!(update.estimate.is_some());
    assert!(update.analysis.is_some());
    assert_matches_cold(&session, &config, "open");
}

#[test]
fn body_edit_takes_the_patch_tier() {
    let config = SessionConfig::default();
    let (mut session, _) = EditSession::open(BASE, config.clone());
    // `x + K` -> `x * K`: same accesses, different ict weight (a
    // multiply costs more cycles), so the topology holds but Helper's
    // annotation row — and every memo depending on it — goes dirty.
    let at = BASE.find("x + K").unwrap() + 2;
    let update = session.apply_edit(&EditDelta::new(at, at + 1, "*")).unwrap();
    assert!(update.clean);
    assert_eq!(update.revision, 1);
    assert_eq!(update.tier, RecomputeTier::Patched, "operator edit keeps topology");
    assert!(update.dirty_nodes >= 1, "the edited behavior must be dirty");
    assert!(
        matches!(update.scope, slif_speclang::ReparseScope::Region { .. }),
        "a body edit reparses one item, got {:?}",
        update.scope
    );
    assert_eq!(session.full_rebuilds(), 1, "only the open was cold");
    assert_matches_cold(&session, &config, "body edit");
}

#[test]
fn structural_edit_recompiles_cold() {
    let config = SessionConfig::default();
    let (mut session, _) = EditSession::open(BASE, config.clone());
    let update = session
        .apply_edit(&EditDelta::new(
            BASE.len(),
            BASE.len(),
            "process Extra {\n  shared = 1;\n  wait 3;\n}\n",
        ))
        .unwrap();
    assert!(update.clean);
    assert_eq!(update.tier, RecomputeTier::Recompiled, "new node changes topology");
    assert_eq!(session.full_rebuilds(), 2);
    assert_matches_cold(&session, &config, "structural edit");
}

#[test]
fn breaking_edit_defers_and_keeps_stale_reports() {
    let config = SessionConfig::default();
    let (mut session, open_update) = EditSession::open(BASE, config.clone());
    let at = BASE.find("process Main").unwrap();
    let update = session.apply_edit(&EditDelta::new(at, at, "{")).unwrap();
    assert!(!update.clean);
    assert_eq!(update.tier, RecomputeTier::Deferred);
    assert!(!update.diagnostics.is_empty());
    // The last good reports stay visible while the text is broken.
    assert_eq!(update.estimate, open_update.estimate);
    assert_eq!(update.analysis, open_update.analysis);

    // Fixing the text recovers without a cold estimator rebuild: the
    // repaired text is annotation-identical to the last good revision.
    let update = session.apply_edit(&EditDelta::new(at, at + 1, "")).unwrap();
    assert!(update.clean, "{:?}", update.diagnostics);
    assert_eq!(update.tier, RecomputeTier::Patched);
    assert_matches_cold(&session, &config, "after fix");
}

#[test]
fn resolve_errors_are_deferred_but_reparse_stays_incremental() {
    let config = SessionConfig::default();
    let (mut session, _) = EditSession::open(BASE, config.clone());
    // `shared = undefined_name;` parses fine but fails resolution.
    let at = BASE.find("shared = 0;").unwrap();
    let update = session
        .apply_edit(&EditDelta::new(at, at + "shared = 0;".len(), "shared = nosuch;"))
        .unwrap();
    assert!(!update.clean);
    assert_eq!(update.tier, RecomputeTier::Deferred);
    assert!(
        update.diagnostics.iter().any(|d| d.contains("nosuch")),
        "{:?}",
        update.diagnostics
    );
    // The parse itself was clean, so the next edit may use the
    // dirty-region path rather than a from-scratch parse.
    let fix = session
        .apply_edit(&EditDelta::new(at, at + "shared = nosuch;".len(), "shared = 0;"))
        .unwrap();
    assert!(fix.clean);
    assert!(
        matches!(fix.scope, slif_speclang::ReparseScope::Region { .. }),
        "got {:?}",
        fix.scope
    );
    assert_matches_cold(&session, &config, "after resolve fix");
}

#[test]
fn invalid_deltas_leave_the_session_untouched() {
    let (mut session, _) = EditSession::open(BASE, SessionConfig::default());
    let before_rev = session.revision();
    let err = session
        .apply_edit(&EditDelta::new(5, BASE.len() + 10, "x"))
        .unwrap_err();
    assert!(matches!(err, EditError::OutOfBounds { .. }));
    assert_eq!(session.revision(), before_rev);
    assert_eq!(session.source(), BASE);
    assert!(session.is_clean());
}

#[test]
fn open_on_broken_text_recovers_on_first_fix() {
    let config = SessionConfig::default();
    let broken = "system T;\nprocess Main { wait 5;\n"; // missing brace
    let (mut session, update) = EditSession::open(broken, config.clone());
    assert!(!update.clean);
    assert!(update.estimate.is_none(), "no good revision yet");
    let update = session
        .apply_edit(&EditDelta::new(broken.len(), broken.len(), "}\n"))
        .unwrap();
    assert!(update.clean, "{:?}", update.diagnostics);
    assert_eq!(update.tier, RecomputeTier::Recompiled);
    assert_matches_cold(&session, &config, "first clean revision");
}

#[test]
fn corpus_specs_open_and_edit_cleanly() {
    let config = SessionConfig::default();
    for entry in slif_speclang::corpus::all() {
        let (mut session, update) = EditSession::open(entry.source, config.clone());
        assert!(update.clean, "{}: {:?}", entry.name, update.diagnostics);
        assert_matches_cold(&session, &config, entry.name);
        // Append a comment: a no-op for every derived product.
        let end = session.source().len();
        let update = session
            .apply_edit(&EditDelta::new(end, end, "// trailing note\n"))
            .unwrap();
        assert!(update.clean);
        assert_eq!(update.tier, RecomputeTier::Patched, "{}", entry.name);
        assert_eq!(update.dirty_nodes, 0, "{}: comment dirtied nodes", entry.name);
        assert_matches_cold(&session, &config, entry.name);
    }
}

/// A tiny deterministic RNG (xorshift64*), mirroring the speclang
/// incremental suite so edit sequences are reproducible from a seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn random_edit_sequences_match_cold_rebuild(seed in 0u64..10_000) {
        let config = SessionConfig::default();
        let (mut session, _) = EditSession::open(BASE, config.clone());
        let mut rng = Rng(seed ^ 0x5e55_1011);
        // Inserts skew toward valid fragments so a useful share of the
        // walk is clean; the braces guarantee broken interludes.
        const INSERTS: &[&str] = &[
            "z",
            "\n",
            " ",
            "{",
            "}",
            "wait 3;\n",
            "shared = 1;\n",
            "var extra : int<8>;\n",
            "process P9 {\n  shared = 2;\n  wait 2;\n}\n",
            "// note\n",
        ];
        for step in 0..60 {
            let len = session.source().len();
            let delta = if rng.below(3) == 0 && len > 2 {
                // Delete a short range (ASCII fixture: every offset is a
                // char boundary).
                let start = rng.below(len - 1);
                let span = 1 + rng.below(3.min(len - start - 1).max(1));
                EditDelta::new(start, (start + span).min(len), "")
            } else {
                let at = rng.below(len + 1);
                EditDelta::new(at, at, INSERTS[rng.below(INSERTS.len())])
            };
            let update = session.apply_edit(&delta).expect("in-bounds ASCII edit");
            assert_eq!(update.revision, session.revision());
            assert_matches_cold(&session, &config, &format!("seed {seed} step {step}"));
        }
    }
}

/// Flow findings (A006–A009) sit in behaviors *after* the one being
/// edited, and the edits add and remove lines, so every reused
/// behavior's node spans must shift. After each edit the warm analysis
/// must equal a cold open's, by `==` and in its rendering.
#[test]
fn flow_findings_after_a_line_changing_edit_match_cold() {
    const SRC: &str = concat!(
        "system Flow;\n",
        "var x : int<8>;\n",
        "var y : int<8>;\n",
        "proc Edited() {\n",
        "  y = 1;\n",
        "}\n",
        "proc Overflow() {\n",
        "  x = 300;\n",
        "}\n",
        "proc Uninit() {\n",
        "  var t : int<8>;\n",
        "  x = t;\n",
        "}\n",
        "proc Dead() {\n",
        "  var d : int<8>;\n",
        "  d = 1;\n",
        "}\n",
        "proc Constant() {\n",
        "  if 1 > 0 {\n",
        "    x = 1;\n",
        "  } else {\n",
        "    x = 2;\n",
        "  }\n",
        "}\n",
        "process Main {\n",
        "  call Edited();\n",
        "  call Overflow();\n",
        "  call Uninit();\n",
        "  call Dead();\n",
        "  call Constant();\n",
        "  wait 5;\n",
        "}\n",
    );
    let config = SessionConfig::default();
    let (mut session, _) = EditSession::open(SRC, config.clone());
    let codes = |s: &EditSession| {
        let rendered = s.analysis().map(ToString::to_string).unwrap_or_default();
        ["A006", "A007", "A008", "A009"].map(|c| rendered.contains(c))
    };
    assert_eq!(codes(&session), [true; 4], "{:?}", session.analysis());
    // Grow Edited by one, then three lines; shrink it back; then shrink
    // and regrow a line's bytes without changing the line count.
    let anchor = "  y = 1;\n";
    let edits: [(&str, &str); 5] = [
        (anchor, "  y = 1;\n  y = 2;\n"),
        ("  y = 2;\n", "  y = 2;\n  y = 3;\n\n  y = 4;\n"),
        ("  y = 2;\n  y = 3;\n\n  y = 4;\n", ""),
        (anchor, "  y = 100;\n"),
        ("  y = 100;\n", anchor),
    ];
    for (step, (from, to)) in edits.iter().enumerate() {
        let at = session.source().find(from).unwrap();
        let update = session
            .apply_edit(&EditDelta::new(at, at + from.len(), *to))
            .unwrap();
        assert!(update.clean, "step {step}: {:?}", update.diagnostics);
        assert_eq!(update.tier, RecomputeTier::Patched, "step {step}");
        assert!(
            matches!(update.scope, slif_speclang::ReparseScope::Region { .. }),
            "step {step}: {:?}",
            update.scope
        );
        let (cold, _) = EditSession::open(session.source(), config.clone());
        assert_eq!(session.analysis(), cold.analysis(), "step {step}");
        assert_eq!(
            session.analysis().map(ToString::to_string),
            cold.analysis().map(ToString::to_string),
            "step {step}"
        );
        assert_eq!(codes(&session), [true; 4], "step {step}");
        assert_eq!(session.estimate(), cold.estimate(), "step {step}");
    }
}
