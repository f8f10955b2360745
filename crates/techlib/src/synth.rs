//! The pseudo-synthesizer: CDFG × ASIC model → ict, gates, and schedules.
//!
//! "The ict of a behavior on a custom hardware component ... can be
//! estimated by synthesizing the behavior to a structure using that
//! particular component's technology" (Section 2.4.1). The synthesis here
//! is the estimation-oriented core of that step: resource-constrained
//! list scheduling of every block gives the latency (→ ict) and the peak
//! functional-unit usage (→ datapath area); controller states and
//! steering logic give the control area. The datapath/control split is
//! recorded so the sharing-aware size estimator (the paper's reference
//! \[1\]) can discount shared functional units.

use crate::models::{AsicModel, BehaviorWeights};
use slif_cdfg::{BlockId, Cdfg, FuClass, OpKind, Scheduler, Usage};
use std::cell::RefCell;

thread_local! {
    /// One scheduler's buffers serve every synthesis on a thread: once
    /// grown to the largest block seen, scheduling allocates nothing.
    static SCHEDULER: RefCell<Scheduler> = RefCell::new(Scheduler::default());
}

/// Pre-synthesizes one behavior for one ASIC model.
///
/// # Examples
///
/// ```
/// use slif_cdfg::lower_behavior;
/// use slif_techlib::{synthesize_behavior, AsicModel};
///
/// let rs = slif_speclang::parse_and_resolve(
///     "system T;\nvar x : int<8>;\nproc P() { x = x * 3; }",
/// )?;
/// let g = lower_behavior(&rs, 0);
/// let weights = synthesize_behavior(&g, &AsicModel::gate_array());
/// assert!(weights.size > 0);
/// assert!(weights.datapath.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize_behavior(g: &Cdfg, model: &AsicModel) -> BehaviorWeights {
    synthesize_with(g, model, |_, _| {})
}

/// [`synthesize_behavior`], handing each block's list-schedule start
/// cycles (positional with the block's ops) to `on_block` as the block is
/// scheduled — the schedule concurrency tags derive from.
pub fn synthesize_with(
    g: &Cdfg,
    model: &AsicModel,
    mut on_block: impl FnMut(BlockId, &[u64]),
) -> BehaviorWeights {
    let delay = |k: &OpKind| model.cycles(k);
    let mut ict_cycles = 0.0;
    let mut peak: Usage = [0; FuClass::COUNT];
    // Taken, not borrowed: a synthesis nested in `on_block` gets its own.
    let mut scheduler = SCHEDULER.take();
    for block_id in g.block_ids() {
        let (latency, usage) = scheduler.list_schedule(g, block_id, &delay, model.resources);
        ict_cycles += g.block(block_id).count.avg * latency as f64;
        for (p, n) in peak.iter_mut().zip(usage) {
            *p = (*p).max(n);
        }
        on_block(block_id, scheduler.starts());
    }
    SCHEDULER.set(scheduler);

    // Datapath area: the functional units the schedule actually needed,
    // plus registers for the behavior's local storage.
    let unit_gates = [model.alu_gates, model.mul_gates, model.div_gates, model.mem_port_gates, 0];
    let fu_gates: u64 = peak.iter().zip(unit_gates).map(|(&n, gates)| u64::from(n) * gates).sum();
    let reg_gates = local_name_count(g) as u64 * 16 * model.gates_per_bit;
    let datapath = fu_gates + reg_gates;

    // Control area: one state per block (single-block behaviors still
    // need a controller) plus steering logic per operation.
    let control =
        g.block_count() as u64 * model.state_gates + g.node_count() as u64 * model.op_ctrl_gates;

    BehaviorWeights {
        ict: (ict_cycles * model.cycle_ns as f64).round() as u64,
        size: datapath + control,
        datapath: Some(datapath),
    }
}

/// Number of distinct behavior-local storage names (locals, params, loop
/// vars) that need registers.
fn local_name_count(g: &Cdfg) -> usize {
    let mut names: Vec<&str> = g
        .op_ids()
        .filter_map(|op| match &g.op(op).kind {
            OpKind::ReadLocal(n)
            | OpKind::WriteLocal(n)
            | OpKind::ReadLocalArray(n)
            | OpKind::WriteLocalArray(n) => Some(n.as_str()),
            _ => None,
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    names.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slif_cdfg::lower_behavior;
    use slif_speclang::parse_and_resolve;

    fn synth(src: &str, name: &str, model: &AsicModel) -> BehaviorWeights {
        let rs = parse_and_resolve(src).expect("spec loads");
        let idx = rs
            .spec()
            .behaviors
            .iter()
            .position(|b| b.name == name)
            .expect("behavior exists");
        synthesize_behavior(&lower_behavior(&rs, idx), model)
    }

    const CONV: &str = "system T;\n\
        var a : int<8>[128];\nvar b : int<8>[128];\nvar c : int<8>[128];\n\
        proc Convolve() { for i in 0 .. 127 { c[i] = max(a[i], b[i]); } }";

    #[test]
    fn asic_beats_processor_on_loops() {
        // The paper's Figure 3: Convolve at 80 us on a processor, 10 us on
        // an ASIC — the shape to reproduce is a large ict ratio.
        let rs = parse_and_resolve(CONV).unwrap();
        let g = lower_behavior(&rs, 0);
        let asic = synthesize_behavior(&g, &AsicModel::gate_array());
        let sw = crate::compile::compile_behavior(&g, &crate::models::ProcessorModel::mcu8());
        assert!(sw.ict >= 4 * asic.ict, "sw {} vs hw {}", sw.ict, asic.ict);
    }

    #[test]
    fn datapath_and_control_split() {
        let r = synth(CONV, "Convolve", &AsicModel::gate_array());
        let dp = r.datapath.unwrap();
        assert!(dp > 0);
        assert!(dp < r.size, "control adds on top of datapath");
    }

    #[test]
    fn bigger_behavior_needs_more_gates() {
        let small = synth(
            "system T;\nvar x : int<8>;\nproc P() { x = x + 1; }",
            "P",
            &AsicModel::gate_array(),
        );
        let big = synth(CONV, "Convolve", &AsicModel::gate_array());
        assert!(big.size > small.size);
    }

    #[test]
    fn fpga_and_gate_array_differ() {
        let ga = synth(CONV, "Convolve", &AsicModel::gate_array());
        let fp = synth(CONV, "Convolve", &AsicModel::fpga());
        assert_ne!(ga, fp);
    }

    #[test]
    fn schedules_returned_per_block() {
        let r = synth(CONV, "Convolve", &AsicModel::gate_array());
        let rs = parse_and_resolve(CONV).unwrap();
        let g = lower_behavior(&rs, 0);
        let mut blocks = Vec::new();
        let w = synthesize_with(&g, &AsicModel::gate_array(), |b, starts| {
            assert_eq!(starts.len(), g.block(b).ops.len());
            blocks.push(b);
        });
        assert_eq!(blocks, g.block_ids().collect::<Vec<_>>());
        assert_eq!(w, r);
    }

    #[test]
    fn a_callback_may_synthesize_again() {
        let rs = parse_and_resolve(CONV).unwrap();
        let g = lower_behavior(&rs, 0);
        let model = AsicModel::gate_array();
        let mut inner = Vec::new();
        let outer = synthesize_with(&g, &model, |_, _| inner.push(synthesize_behavior(&g, &model)));
        assert!(inner.iter().all(|w| *w == outer));
    }

    #[test]
    fn communication_excluded_from_asic_ict() {
        // Pure global reads/writes schedule with zero delay.
        let r = synth(
            "system T;\nvar x : int<8>;\nvar y : int<8>;\nproc P() { y = x; }",
            "P",
            &AsicModel::gate_array(),
        );
        // Only the Return costs a cycle.
        assert_eq!(r.ict, AsicModel::gate_array().cycle_ns);
    }
}
