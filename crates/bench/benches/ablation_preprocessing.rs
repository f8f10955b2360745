//! Ablation: preprocessed weight-sum estimation vs per-query re-synthesis.
//!
//! The abstract's headline: SLIF "enables estimations of design metrics
//! in an order of magnitude less time and memory". Section 5 makes the
//! mechanism concrete — with SLIF "we can synthesize each node
//! beforehand, so size estimation only requires adding the
//! previously-determined node sizes"; with a fine-grained format one must
//! "perform a rough synthesis on that entire set of nodes" per query,
//! which "is not feasible when we use algorithms that examine thousands
//! of possibilities".
//!
//! This bench estimates the ASIC size of growing behavior sets two ways:
//! the SLIF way (sum the preprocessed `size_list` weights) and the naive
//! way (re-run pseudo-synthesis on every behavior in the set). Expected
//! shape: the lookup stays in nanoseconds while re-synthesis costs
//! microseconds-to-milliseconds and grows with the set — several orders
//! of magnitude apart.

use criterion::{criterion_group, criterion_main, Criterion};
use slif_cdfg::{lower_spec, Cdfg};
use slif_core::PmRef;
use slif_estimate::size;
use slif_frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif_speclang::corpus;
use slif_techlib::{synthesize_behavior, AsicModel, TechnologyLibrary};
use std::hint::black_box;

fn bench_preprocessing(c: &mut Criterion) {
    slif_bench::banner("Ablation: weight-sum lookup vs re-synthesis per size query");
    let entry = corpus::by_name("ether").expect("ether exists");
    let rs = entry.load().expect("loads");
    let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let arch = allocate_proc_asic(&mut design);
    let cdfgs: Vec<Cdfg> = lower_spec(&rs);
    let model = AsicModel::gate_array();

    let behaviors: Vec<_> = design.graph().behavior_ids().collect();
    let mut group = c.benchmark_group("ablation_preprocessing");
    for &set_size in &[2usize, 5, 10, behaviors.len()] {
        let set = &behaviors[..set_size.min(behaviors.len())];
        // Map the set onto the ASIC.
        let mut part = all_software_partition(&design, arch);
        for &n in set {
            part.assign_node(n, PmRef::Processor(arch.asic));
        }
        let asic = PmRef::Processor(arch.asic);

        group.bench_function(format!("slif_lookup_sum/{set_size}"), |b| {
            b.iter(|| black_box(size(&design, &part, asic).expect("weights present")))
        });
        // The naive path: re-synthesize every behavior of the set on each
        // query (what an operation-granularity format forces).
        let set_cdfgs: Vec<&Cdfg> = set
            .iter()
            .map(|&n| {
                cdfgs
                    .iter()
                    .find(|g| g.name() == design.graph().node(n).name())
                    .expect("behavior has a cdfg")
            })
            .collect();
        group.bench_function(format!("resynthesize/{set_size}"), |b| {
            b.iter(|| {
                let total: u64 = set_cdfgs
                    .iter()
                    .map(|g| synthesize_behavior(g, &model).size)
                    .sum();
                black_box(total)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_preprocessing);
criterion_main!(benches);
