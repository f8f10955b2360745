//! Basic-block granularity SLIF construction.
//!
//! "A behavior is a process or procedure in the specification; finer
//! granularity can be obtained by treating basic blocks as procedures"
//! (Section 2.2). This module implements that knob: every CDFG basic
//! block becomes its own SLIF behavior node, pre-compiled and
//! pre-synthesized individually, so partitioners can split a single
//! procedure's hot loop away from its cold paths.
//!
//! Structure: each behavior's entry block keeps the behavior's name (and
//! its process flag); the other blocks become procedures named
//! `{behavior}.bb{k}`. Control structure is modelled by the
//! immediate-dominator tree — block `L` is "called" by `idom(L)` with
//! frequency `count(L) / count(idom(L))` — which is acyclic by
//! construction and telescopes to the same total internal computation
//! time the behavior-level node carries.

use crate::bits::object_access_bits;
use slif_cdfg::{immediate_dominators, lower_spec, BlockId, Cdfg, ExecCount, OpKind};
use slif_core::{
    AccessFreq, AccessKind, AccessTarget, ClassId, ClassKind, Design, NodeId, NodeKind,
    PortDirection, WeightEntry,
};
use slif_speclang::ast::{BehaviorKind, Direction};
use slif_speclang::ResolvedSpec;
use slif_techlib::{compile_behavior, synthesize_behavior, TechnologyLibrary};

/// How coarse the access-graph nodes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// One node per process/procedure (the paper's default).
    #[default]
    Behavior,
    /// One node per basic block ("treating basic blocks as procedures").
    BasicBlock,
}

/// Builds a design at the requested granularity.
///
/// At [`Granularity::Behavior`] this is exactly
/// [`build_design`](crate::build_design).
pub fn build_design_at(
    rs: &ResolvedSpec,
    lib: &TechnologyLibrary,
    granularity: Granularity,
) -> Design {
    match granularity {
        Granularity::Behavior => crate::build_design(rs, lib),
        Granularity::BasicBlock => build_block_design(rs, lib),
    }
}

fn build_block_design(rs: &ResolvedSpec, lib: &TechnologyLibrary) -> Design {
    let spec = rs.spec();
    let mut d = Design::new(format!("{}@bb", spec.name));

    let proc_classes: Vec<ClassId> = lib
        .processors
        .iter()
        .map(|m| d.add_class(&m.name, ClassKind::StdProcessor))
        .collect();
    let asic_classes: Vec<ClassId> = lib
        .asics
        .iter()
        .map(|m| d.add_class(&m.name, ClassKind::CustomHw))
        .collect();
    let mem_classes: Vec<ClassId> = lib
        .memories
        .iter()
        .map(|m| d.add_class(&m.name, ClassKind::Memory))
        .collect();

    for p in &spec.ports {
        let dir = match p.direction {
            Direction::In => PortDirection::In,
            Direction::Out => PortDirection::Out,
            Direction::Inout => PortDirection::InOut,
        };
        d.graph_mut().add_port(&p.name, dir, p.ty.access_bits());
    }

    let cdfgs = lower_spec(rs);

    // Nodes: one per block of every behavior; weights from a single-block
    // sub-CDFG through the same pseudo-compiler/synthesizer.
    let mut block_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(cdfgs.len());
    for (bi, g) in cdfgs.iter().enumerate() {
        let is_process = spec.behaviors[bi].kind == BehaviorKind::Process;
        let mut nodes = Vec::with_capacity(g.block_count());
        for block in g.block_ids() {
            let name = block_node_name(g.name(), block);
            let kind = if block == g.entry() && is_process {
                NodeKind::process()
            } else {
                NodeKind::procedure()
            };
            let node = d.graph_mut().add_node(name, kind);
            let sub = single_block_cdfg(g, block);
            for (model, &class) in lib.processors.iter().zip(&proc_classes) {
                let w = compile_behavior(&sub, model);
                d.graph_mut().node_mut(node).ict_mut().set(class, w.ict);
                d.graph_mut().node_mut(node).size_mut().set(class, w.size);
            }
            for (model, &class) in lib.asics.iter().zip(&asic_classes) {
                let w = synthesize_behavior(&sub, model);
                d.graph_mut().node_mut(node).ict_mut().set(class, w.ict);
                let entry = match w.datapath {
                    Some(dp) => WeightEntry::with_datapath(class, w.size, dp),
                    None => WeightEntry::new(class, w.size),
                };
                d.graph_mut().node_mut(node).size_mut().insert(entry);
            }
            nodes.push(node);
        }
        block_nodes.push(nodes);
    }

    // Variables, with weights for every class.
    for v in &spec.vars {
        let (words, word_bits) = v.ty.storage();
        let node = d
            .graph_mut()
            .add_node(&v.name, NodeKind::array(words, word_bits));
        for (model, &class) in lib.processors.iter().zip(&proc_classes) {
            let w = model.variable(words, word_bits);
            d.graph_mut()
                .node_mut(node)
                .ict_mut()
                .set(class, w.access_time);
            d.graph_mut().node_mut(node).size_mut().set(class, w.size);
        }
        for (model, &class) in lib.asics.iter().zip(&asic_classes) {
            let w = model.variable(words, word_bits);
            d.graph_mut()
                .node_mut(node)
                .ict_mut()
                .set(class, w.access_time);
            d.graph_mut().node_mut(node).size_mut().set(class, w.size);
        }
        for (model, &class) in lib.memories.iter().zip(&mem_classes) {
            let w = model.variable(words, word_bits);
            d.graph_mut()
                .node_mut(node)
                .ict_mut()
                .set(class, w.access_time);
            d.graph_mut().node_mut(node).size_mut().set(class, w.size);
        }
    }

    // Channels.
    for (bi, g) in cdfgs.iter().enumerate() {
        let idom = immediate_dominators(g);
        // Dominator-tree control edges.
        for block in g.block_ids() {
            if block == g.entry() {
                continue;
            }
            let parent = idom[block.index()];
            let src = block_nodes[bi][parent.index()];
            let dst = block_nodes[bi][block.index()];
            let c = d
                .graph_mut()
                .add_or_merge_channel(src, dst.into(), AccessKind::Call)
                .expect("block nodes are behaviors");
            let freq = control_freq(g.block(parent).count, g.block(block).count);
            let ch = d.graph_mut().channel_mut(c);
            *ch.freq_mut() = freq;
            ch.set_bits(1);
        }
        // Per-block system accesses (each op runs once per block run).
        for block in g.block_ids() {
            let src = block_nodes[bi][block.index()];
            for &op in &g.block(block).ops {
                let kind = &g.op(op).kind;
                let (target, akind): (String, AccessKind) = match kind {
                    OpKind::ReadGlobal(n) | OpKind::ReadGlobalArray(n) => {
                        (n.clone(), AccessKind::Read)
                    }
                    OpKind::WriteGlobal(n) | OpKind::WriteGlobalArray(n) => {
                        (n.clone(), AccessKind::Write)
                    }
                    OpKind::ReadPort(n) => (n.clone(), AccessKind::Read),
                    OpKind::WritePort(n) => (n.clone(), AccessKind::Write),
                    OpKind::Call(n) => (n.clone(), AccessKind::Call),
                    OpKind::SendMsg(n) => (n.clone(), AccessKind::Message),
                    _ => continue,
                };
                let dst: AccessTarget = if let Some(n) = d.graph().node_by_name(&target) {
                    n.into()
                } else if let Some(p) = d.graph().port_by_name(&target) {
                    p.into()
                } else {
                    // Unresolvable name (possible on a partially recovered
                    // spec): skip this access rather than abort the build.
                    continue;
                };
                let bits = match kind {
                    OpKind::SendMsg(_) => crate::build::message_bits(rs, bi, &target),
                    _ => object_access_bits(rs, &target).unwrap_or(1),
                };
                let Ok(c) = d.graph_mut().add_or_merge_channel(src, dst, akind) else {
                    continue;
                };
                let ch = d.graph_mut().channel_mut(c);
                // First touch: replace the defaults; later: accumulate.
                if ch.freq() == AccessFreq::default() && ch.bits() == 1 {
                    *ch.freq_mut() = AccessFreq::exact(1);
                    ch.set_bits(bits);
                } else {
                    let f = ch.freq();
                    *ch.freq_mut() = AccessFreq::new(f.avg + 1.0, f.min + 1, f.max + 1);
                    ch.set_bits(ch.bits().max(bits));
                }
            }
        }
    }
    d
}

/// Extracts one block of `g` as a standalone single-block CDFG whose
/// entry runs exactly once — the unit the pseudo-compiler and
/// pseudo-synthesizer cost to get per-execution block weights.
fn single_block_cdfg(g: &Cdfg, block: BlockId) -> Cdfg {
    let mut sub = Cdfg::new(block_node_name(g.name(), block));
    let entry = sub.entry();
    let ops = &g.block(block).ops;
    // Old op id → new op id, for intra-block dataflow.
    let mut map = std::collections::HashMap::with_capacity(ops.len());
    for &op in ops {
        let node = g.op(op);
        let inputs = node
            .inputs
            .iter()
            .filter_map(|i| map.get(i).copied())
            .collect();
        let new = sub.add_op(entry, node.kind.clone(), inputs);
        map.insert(op, new);
    }
    sub
}

/// Name of a block's node: the behavior's own name for the entry block,
/// `{behavior}.bb{k}` otherwise.
pub fn block_node_name(behavior: &str, block: BlockId) -> String {
    if block.index() == 0 {
        behavior.to_owned()
    } else {
        format!("{behavior}.bb{}", block.index())
    }
}

/// Frequency of the dominator-tree edge `parent → child`:
/// `count(child) / count(parent)` on average, with a conservative
/// `[0, count(child).max]` envelope.
fn control_freq(parent: ExecCount, child: ExecCount) -> AccessFreq {
    let avg = if parent.avg > 0.0 {
        child.avg / parent.avg
    } else {
        0.0
    };
    // The ratio can exceed the child's own max when the parent executes
    // fractionally (nested improbable branches); widen the envelope so
    // the annotation stays consistent.
    let max = child.max.max(1).max(avg.ceil() as u64);
    AccessFreq::new(avg, 0, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_software_partition, allocate_proc_asic};
    use slif_estimate::ExecTimeEstimator;
    use slif_speclang::{corpus, parse_and_resolve};

    #[test]
    fn block_granularity_multiplies_node_count() {
        let rs = corpus::by_name("fuzzy").unwrap().load().unwrap();
        let lib = TechnologyLibrary::proc_asic();
        let coarse = build_design_at(&rs, &lib, Granularity::Behavior);
        let fine = build_design_at(&rs, &lib, Granularity::BasicBlock);
        assert!(
            fine.graph().node_count() > 2 * coarse.graph().node_count(),
            "{} vs {}",
            fine.graph().node_count(),
            coarse.graph().node_count()
        );
        // Entry blocks keep the behavior names; the process flag survives.
        let main = fine.graph().node_by_name("FuzzyMain").unwrap();
        assert!(fine.graph().node(main).kind().is_process());
        assert!(fine.graph().node_by_name("EvaluateRule.bb1").is_some());
    }

    #[test]
    fn block_design_is_acyclic_and_estimable() {
        let rs = corpus::by_name("fuzzy").unwrap().load().unwrap();
        let lib = TechnologyLibrary::proc_asic();
        let mut fine = build_design_at(&rs, &lib, Granularity::BasicBlock);
        assert_eq!(fine.graph().find_recursion(), None);
        let arch = allocate_proc_asic(&mut fine);
        let part = all_software_partition(&fine, arch);
        part.validate(&fine).unwrap();
        let main = fine.graph().node_by_name("FuzzyMain").unwrap();
        let t = ExecTimeEstimator::new(&fine, &part)
            .exec_time(main)
            .unwrap();
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn block_and_behavior_estimates_agree_in_shape() {
        // The dominator-tree decomposition telescopes block ict back to
        // the behavior total; transfer overhead on control edges adds a
        // bounded premium.
        let rs = parse_and_resolve(
            "system T;\nport o : out int<16>;\nvar a : int<8>[64];\nvar s : int<16>;\n\
             process Main {\n\
               for i in 0 .. 63 { a[i] = i * 3; }\n\
               s = 0;\n\
               for i in 0 .. 63 { if s < 100 prob 0.5 { s = s + a[i]; } }\n\
               o = s;\n\
             }",
        )
        .unwrap();
        let lib = TechnologyLibrary::proc_asic();
        let time_at = |granularity| {
            let mut d = build_design_at(&rs, &lib, granularity);
            let arch = allocate_proc_asic(&mut d);
            let part = all_software_partition(&d, arch);
            ExecTimeEstimator::new(&d, &part)
                .exec_time(d.graph().node_by_name("Main").unwrap())
                .unwrap()
        };
        let coarse = time_at(Granularity::Behavior);
        let fine = time_at(Granularity::BasicBlock);
        assert!(
            fine >= coarse * 0.75 && fine <= coarse * 1.5,
            "coarse {coarse} vs fine {fine}"
        );
    }

    #[test]
    fn splitting_a_hot_block_to_hardware_pays_off() {
        // The point of the knob: at block granularity a partitioner can
        // move just the hot loop of a behavior to the ASIC.
        let rs = parse_and_resolve(
            "system T;\nport o : out int<16>;\nvar a : int<8>[128];\nvar s : int<16>;\n\
             process Main {\n\
               s = s + 1;\n\
               for i in 0 .. 127 { a[i] = a[i] * 3 + i; }\n\
               o = s;\n\
             }",
        )
        .unwrap();
        let lib = TechnologyLibrary::proc_asic();
        let mut d = build_design_at(&rs, &lib, Granularity::BasicBlock);
        let arch = allocate_proc_asic(&mut d);
        let sw = all_software_partition(&d, arch);
        let main = d.graph().node_by_name("Main").unwrap();
        let t_sw = ExecTimeEstimator::new(&d, &sw).exec_time(main).unwrap();
        // Move the loop body block (and the array it hammers) to hardware.
        let hot = d.graph().node_by_name("Main.bb1").unwrap();
        let arr = d.graph().node_by_name("a").unwrap();
        let mut hw = sw.clone();
        hw.assign_node(hot, slif_core::PmRef::Processor(arch.asic));
        hw.assign_node(arr, slif_core::PmRef::Processor(arch.asic));
        let t_hw = ExecTimeEstimator::new(&d, &hw).exec_time(main).unwrap();
        assert!(t_hw < t_sw, "hot-block offload: {t_hw} vs {t_sw}");
    }

    #[test]
    fn block_granularity_annotations_are_consistent() {
        let lib = TechnologyLibrary::proc_asic();
        for entry in corpus::all() {
            let rs = entry.load().unwrap();
            let d = build_design_at(&rs, &lib, Granularity::BasicBlock);
            for c in d.graph().channel_ids() {
                let ch = d.graph().channel(c);
                assert!(
                    ch.freq().is_consistent(),
                    "{}: {}",
                    entry.name,
                    ch
                );
                assert!(ch.bits() > 0);
            }
        }
    }

    #[test]
    fn every_corpus_system_builds_at_block_granularity() {
        let lib = TechnologyLibrary::proc_asic();
        for entry in corpus::all() {
            let rs = entry.load().unwrap();
            let mut d = build_design_at(&rs, &lib, Granularity::BasicBlock);
            assert_eq!(d.graph().find_recursion(), None, "{}", entry.name);
            let arch = allocate_proc_asic(&mut d);
            let part = all_software_partition(&d, arch);
            part.validate(&d)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            let report = slif_estimate::DesignReport::compute(&d, &part)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert!(!report.processes.is_empty());
        }
    }
}
