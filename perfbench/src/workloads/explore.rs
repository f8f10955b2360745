//! `explore_anneal`: fixed-budget simulated annealing over the four
//! corpus designs and a seeded generated design of ~2k nodes. Each run
//! of the annealer is one op; ops cycle through the designs and four
//! seeded annealing seeds, so every (design, seed) pair repeats within a
//! run. Parsing and building are set-up; the ops do no I/O.

use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{repeated_setup, Config, Outcome, Plant};
use slif_core::gen::DesignGenerator;
use slif_core::{CompiledDesign, Design, NodeId, Partition, PmRef};
use slif_estimate::{Evaluator, FullEstimator, IncrementalEstimator};
use slif_explore::{cost, simulated_annealing, AnnealingConfig, Objectives};
use slif_frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif_speclang::{corpus, parse, resolve};
use slif_techlib::TechnologyLibrary;
use std::collections::HashMap;
use std::time::Instant;

/// Annealing seeds per run; ops cycle through them.
const ANNEAL_SEEDS: usize = 4;
/// Move-and-cost evaluations per design in the estimator replay.
const REPLAY_MOVES: usize = 256;

struct Target {
    name: String,
    design: Design,
    start: Partition,
}

fn set_up(cfg: &Config, tr: &mut Tracer) -> Vec<Target> {
    let lib = TechnologyLibrary::proc_asic();
    let mut targets: Vec<Target> = corpus::all()
        .iter()
        .map(|e| {
            let ast = tr
                .time("speclang.parse", || parse(e.source))
                .expect("corpus parses");
            let rs = tr
                .time("speclang.resolve", || resolve(ast))
                .expect("corpus resolves");
            let (design, start) = tr.time("frontend.build", || {
                let mut design = build_design(&rs, &lib);
                let arch = allocate_proc_asic(&mut design);
                let start = all_software_partition(&design, arch);
                (design, start)
            });
            Target {
                name: e.name.to_owned(),
                design,
                start,
            }
        })
        .collect();
    let mut rng = Rng::new(cfg.seed, 3);
    let n = crate::inputs::near(&mut rng, cfg.sizes.explore_nodes);
    let (design, start) = tr.time("core.generate", || {
        DesignGenerator::new(rng.next_u64())
            .behaviors(n * 4 / 5)
            .variables(n / 5)
            .ports(6)
            .avg_fanout(1.8)
            .processors(3)
            .memories(2)
            .buses(2)
            .build()
    });
    targets.push(Target {
        name: format!("generated{}", design.graph().node_count()),
        design,
        start,
    });
    targets
}

/// Nanoseconds per move-and-cost evaluation on an estimator.
fn per_eval_ns<E: Evaluator>(design: &Design, est: &mut E, objectives: &Objectives) -> f64 {
    let procs: Vec<PmRef> = design.processor_ids().map(Into::into).collect();
    let n = design.graph().node_count();
    let start = Instant::now();
    let mut acc = 0.0;
    for k in 0..REPLAY_MOVES {
        let node = NodeId::from_raw((k * 7 % n) as u32);
        est.move_node(node, procs[k % procs.len()])
            .expect("a legal move");
        acc += cost(est, objectives).expect("an estimable partition");
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / REPLAY_MOVES as f64
}

/// Runs the workload.
pub fn run(cfg: &Config, epoch: Instant) -> Outcome {
    let mut out = Outcome::new(cfg.trace, epoch);
    let (targets, setup) = repeated_setup(
        &cfg.sizes,
        &mut out.clock,
        || set_up(cfg, &mut out.tracer),
        drop,
    );
    out.setup_s = setup.ref_s;
    let mut rng = Rng::new(cfg.seed, 4);
    let seeds: Vec<u64> = (0..ANNEAL_SEEDS).map(|_| rng.next_u64()).collect();
    let objectives = Objectives::new();
    let anneal = AnnealingConfig {
        t0: 50.0,
        alpha: 0.9,
        moves_per_temp: cfg.sizes.explore_moves,
        t_min: 0.05,
    };
    let mut first: HashMap<(usize, usize), Partition> = HashMap::new();
    let mut evaluations = 0.0;
    let mut op = 0usize;
    while out.busy_s < cfg.seconds || op < targets.len() * ANNEAL_SEEDS {
        let (t, k) = (op % targets.len(), (op / targets.len()) % ANNEAL_SEEDS);
        let target = &targets[t];
        let start_partition = target.start.clone();
        op += 1;
        out.tracer.set_op(op as u64);
        let span = out.tracer.begin("op");
        out.clock.start();
        let result = out.tracer.time("explore.anneal", || {
            simulated_annealing(
                &target.design,
                start_partition,
                &objectives,
                anneal,
                seeds[k],
            )
        });
        let lap = out.clock.stop();
        out.tracer.end(span);
        out.tracer.set_op(0);
        out.record(lap);
        let mut result = match result {
            Ok(r) => r,
            Err(e) => {
                out.judge(vec![format!("{}: annealing failed: {e}", target.name)]);
                continue;
            }
        };
        out.work += result.evaluations as f64;
        evaluations += result.evaluations as f64;
        if op == 1 && cfg.plant == Some(Plant::PerturbCost) {
            result.cost *= 1.0 + 1e-9;
        }
        let mut problems = Vec::new();
        let scratch = FullEstimator::new(&target.design, result.partition.clone())
            .and_then(|mut est| cost(&mut est, &objectives));
        match scratch {
            Ok(c) if c.to_bits() == result.cost.to_bits() => {}
            Ok(c) => problems.push(format!(
                "{}: reported best cost {} but a from-scratch estimate gives {c}",
                target.name, result.cost
            )),
            Err(e) => problems.push(format!(
                "{}: from-scratch estimate failed: {e}",
                target.name
            )),
        }
        let seen = first
            .entry((t, k))
            .or_insert_with(|| result.partition.clone());
        if *seen != result.partition {
            problems.push(format!(
                "{}: the same seed gave a different partition",
                target.name
            ));
        }
        out.judge(problems);
    }
    out.summary.push(format!(
        "explore_anneal: {} designs, {} anneals, explore_evals_per_s {:.0} at reference speed \
         ({:.0} wall-clock) (n={}), failed_share {:.4}",
        targets.len(),
        out.attempted,
        out.rates().1,
        out.rates().0,
        out.ops_ms.len(),
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    if cfg.trace {
        let (mut inc_ns, mut full_ns) = (Vec::new(), Vec::new());
        for target in &targets {
            let span = out.tracer.begin("replay");
            let cd = out
                .tracer
                .time("core.compile", || CompiledDesign::compile(&target.design));
            let mut inc = IncrementalEstimator::from_compiled(&cd, target.start.clone())
                .expect("a valid start partition");
            let mut full = FullEstimator::from_compiled(&cd, target.start.clone())
                .expect("a valid start partition");
            inc_ns.push(out.tracer.time("estimate.incremental_eval", || {
                per_eval_ns(&target.design, &mut inc, &objectives)
            }));
            full_ns.push(out.tracer.time("estimate.full_eval", || {
                per_eval_ns(&target.design, &mut full, &objectives)
            }));
            out.tracer.end(span);
        }
        let t = &out.tracer;
        let specs = corpus::all().len() as f64;
        let (inc, full) = (median(&inc_ns), median(&full_ns));
        let l = &mut out.layers;
        l.put("estimate.incremental_eval_ns", inc, "ns");
        l.put("estimate.full_eval_ns", full, "ns");
        l.put("estimate.full_over_incremental", full / inc, "x");
        l.put(
            "explore.anneal_ms",
            median(&t.durations_ms("explore.anneal")),
            "ms",
        );
        l.put("explore.evaluations", evaluations, "count");
        l.put(
            "core.compile_ms",
            median(&t.durations_ms("core.compile")),
            "ms",
        );
        let repeats = cfg.sizes.setup_repeats as f64;
        for (metric, span) in [
            ("speclang.parse_ms", "speclang.parse"),
            ("speclang.resolve_ms", "speclang.resolve"),
            ("frontend.build_ms", "frontend.build"),
        ] {
            l.put(metric, t.total_ms(span) / (specs * repeats), "ms");
        }
        l.put(
            "core.nodes",
            targets
                .iter()
                .map(|t| t.design.graph().node_count() as f64)
                .sum(),
            "count",
        );
    }
    out
}
