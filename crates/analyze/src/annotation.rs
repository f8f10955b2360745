//! `A005 missing-annotation`: weight gaps on allocated classes.
//!
//! The paper's estimation model needs "one weight for each type of
//! system component on which that node could possibly be implemented"
//! (Section 2.4). The validator warns about gaps against *every* class
//! in the library; this lint is sharper — it checks only the classes the
//! allocation actually instantiates as processors and memories, i.e.
//! exactly the lookups an estimate can perform. Every gap it reports is
//! a site where estimation either fails
//! ([`CoreError::MissingWeight`](slif_core::CoreError)) or consults the
//! configured fallback weights (`EstimatorConfig::with_default_ict` /
//! `with_default_size`) and records one (deduplicated) `MissingWeight`
//! estimate warning.

use crate::analyzer::{Ctx, Sink};
use crate::lint::LintId;
use slif_core::ClassId;

pub(crate) fn run(ctx: &Ctx<'_>, sink: &mut Sink<'_>) {
    let cd = ctx.cd;
    // The classes actually allocated, deduplicated in index order so the
    // report order is stable.
    let mut classes: Vec<ClassId> = cd
        .pm_refs()
        .map(|pm| cd.component_class(pm))
        .filter(|k| k.index() < cd.class_count())
        .collect();
    classes.sort_by_key(|k| k.index());
    classes.dedup();

    for n in cd.node_ids() {
        let kind = cd.node_kind(n);
        for &class in &classes {
            // Behaviors cannot be mapped into memories, so memory-class
            // gaps are unreachable for them.
            if kind.is_behavior() && !cd.class_kind(class).holds_behaviors() {
                continue;
            }
            let mut missing: Vec<&str> = Vec::new();
            if cd.ict_weight(n, class).is_none() {
                missing.push("ict");
            }
            if cd.size_weight(n, class).is_none() {
                missing.push("size");
            }
            if missing.is_empty() {
                continue;
            }
            let what = if kind.is_behavior() {
                "behavior"
            } else {
                "variable"
            };
            sink.emit(
                LintId::MissingAnnotation,
                Some(n),
                None,
                format!(
                    "{what} {n} ({}) has no {} weight for allocated class {class}: \
                     estimation on it fails or substitutes degraded defaults",
                    cd.node_name(n),
                    missing.join(" or "),
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint::{AnalysisConfig, LintId};
    use crate::analyze;
    use slif_core::{AccessKind, ClassKind, Design, NodeKind};

    fn fixture() -> Design {
        let mut d = Design::new("ann");
        let pc = d.add_class("proc", ClassKind::StdProcessor);
        let main = d.graph_mut().add_node("Main", NodeKind::process());
        let v = d.graph_mut().add_node("v", NodeKind::scalar(8));
        d.graph_mut()
            .add_channel(main, v.into(), AccessKind::Write)
            .expect("fixture channel");
        d.graph_mut().node_mut(main).ict_mut().set(pc, 10);
        d.graph_mut().node_mut(main).size_mut().set(pc, 100);
        d.graph_mut().node_mut(v).ict_mut().set(pc, 1);
        d.graph_mut().node_mut(v).size_mut().set(pc, 1);
        d.add_processor("cpu", pc);
        d
    }

    #[test]
    fn fully_annotated_allocation_is_clean() {
        let d = fixture();
        let report = analyze(&d, None, &AnalysisConfig::new());
        assert_eq!(report.of(LintId::MissingAnnotation).count(), 0, "{report}");
    }

    #[test]
    fn gap_on_allocated_class_fires() {
        let mut d = fixture();
        let main = d.graph().node_by_name("Main").expect("Main exists");
        d.graph_mut().node_mut(main).ict_mut().clear();
        let report = analyze(&d, None, &AnalysisConfig::new());
        let hits: Vec<_> = report.of(LintId::MissingAnnotation).collect();
        assert_eq!(hits.len(), 1, "{report}");
        assert!(hits[0].message.contains("no ict weight"), "{}", hits[0].message);
        assert!(hits[0].message.contains("Main"), "{}", hits[0].message);
    }

    #[test]
    fn gap_on_unallocated_class_is_ignored() {
        let mut d = fixture();
        // A library class nothing instantiates: no lookups can hit it.
        d.add_class("spare-asic", ClassKind::CustomHw);
        let report = analyze(&d, None, &AnalysisConfig::new());
        assert_eq!(report.of(LintId::MissingAnnotation).count(), 0, "{report}");
    }

    #[test]
    fn memory_class_gap_counts_for_variables_only() {
        let mut d = fixture();
        let mc = d.add_class("sram", ClassKind::Memory);
        d.add_memory("m0", mc);
        // Neither node has sram weights: only the variable needs them.
        let report = analyze(&d, None, &AnalysisConfig::new());
        let hits: Vec<_> = report.of(LintId::MissingAnnotation).collect();
        assert_eq!(hits.len(), 1, "{report}");
        assert!(hits[0].message.contains("variable"), "{}", hits[0].message);
        assert!(hits[0].message.contains("ict or size"), "{}", hits[0].message);
    }

    #[test]
    fn both_lists_missing_is_one_finding() {
        let mut d = fixture();
        let v = d.graph().node_by_name("v").expect("v exists");
        d.graph_mut().node_mut(v).ict_mut().clear();
        d.graph_mut().node_mut(v).size_mut().clear();
        let report = analyze(&d, None, &AnalysisConfig::new());
        assert_eq!(report.of(LintId::MissingAnnotation).count(), 1, "{report}");
    }
}
