//! Pipeline fuzzing: random specifications through the whole flow.
//!
//! A seeded generator emits structurally valid specifications; every one
//! must parse, resolve, pretty-print to a fixed point, lower to CDFGs,
//! build into a SLIF design whose every channel annotation is consistent,
//! estimate without error, and simulate within its guards. The same
//! generator, with the corpus, feeds the pinned digest of every design
//! weight and concurrency tag that pre-synthesis produces.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slif::estimate::DesignReport;
use slif::core::Design;
use slif::frontend::{
    all_software_partition, allocate_proc_asic, build_design, build_design_at, build_design_with,
    BuildOptions, Granularity,
};
use slif::speclang::corpus;
use slif::sim::{simulate, PortStimulus, SimConfig, Stimulus};
use slif::techlib::TechnologyLibrary;
use std::fmt::Write as _;

/// Generates a random, valid specification as source text.
fn gen_spec(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::new();
    let _ = writeln!(out, "system Gen{seed};");

    let n_in = rng.gen_range(1..=3);
    let n_out = rng.gen_range(1..=2);
    for i in 0..n_in {
        let _ = writeln!(out, "port pin{i} : in int<8>;");
    }
    for i in 0..n_out {
        let _ = writeln!(out, "port pout{i} : out int<16>;");
    }

    let n_scalars = rng.gen_range(2..=6);
    let n_arrays = rng.gen_range(1..=3);
    for i in 0..n_scalars {
        let _ = writeln!(out, "var v{i} : int<16>;");
    }
    for i in 0..n_arrays {
        let len = [8, 16, 32][rng.gen_range(0usize..3)];
        let _ = writeln!(out, "var a{i} : int<8>[{len}];");
    }

    // Integer expression over the declared names (depth-limited).
    fn expr(rng: &mut StdRng, scalars: usize, arrays: usize, ins: usize, depth: u32) -> String {
        if depth == 0 || rng.gen_bool(0.4) {
            return match rng.gen_range(0..4) {
                0 => format!("{}", rng.gen_range(0..100)),
                1 => format!("v{}", rng.gen_range(0..scalars)),
                2 if arrays > 0 => {
                    format!("a{}[{}]", rng.gen_range(0..arrays), rng.gen_range(0..8))
                }
                _ => format!("pin{}", rng.gen_range(0..ins)),
            };
        }
        let op = ["+", "-", "*"][rng.gen_range(0usize..3)];
        let l = expr(rng, scalars, arrays, ins, depth - 1);
        let r = expr(rng, scalars, arrays, ins, depth - 1);
        match rng.gen_range(0..4) {
            0 => format!("min({l}, {r})"),
            1 => format!("abs({l})"),
            _ => format!("({l} {op} {r})"),
        }
    }

    fn cond(rng: &mut StdRng, scalars: usize, arrays: usize, ins: usize) -> String {
        let op = ["==", "!=", "<", ">", "<=", ">="][rng.gen_range(0usize..6)];
        format!(
            "{} {op} {}",
            expr(rng, scalars, arrays, ins, 1),
            expr(rng, scalars, arrays, ins, 0)
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn stmts(
        rng: &mut StdRng,
        scalars: usize,
        arrays: usize,
        ins: usize,
        outs: usize,
        callables: usize,
        depth: u32,
        loop_level: u32,
        out: &mut String,
        pad: &str,
    ) {
        let n = rng.gen_range(1..=3);
        for _ in 0..n {
            match rng.gen_range(0..8) {
                0..=2 => {
                    let v = rng.gen_range(0..scalars);
                    let e = expr(rng, scalars, arrays, ins, 2);
                    let _ = writeln!(out, "{pad}v{v} = {e};");
                }
                3 if arrays > 0 => {
                    let a = rng.gen_range(0..arrays);
                    let idx = rng.gen_range(0..8);
                    let e = expr(rng, scalars, arrays, ins, 1);
                    let _ = writeln!(out, "{pad}a{a}[{idx}] = {e};");
                }
                4 if depth > 0 => {
                    let c = cond(rng, scalars, arrays, ins);
                    let p = rng.gen_range(1..=9);
                    let _ = writeln!(out, "{pad}if {c} prob 0.{p} {{");
                    stmts(
                        rng,
                        scalars,
                        arrays,
                        ins,
                        outs,
                        callables,
                        depth - 1,
                        loop_level,
                        out,
                        &format!("{pad}  "),
                    );
                    let _ = writeln!(out, "{pad}}}");
                }
                5 if depth > 0 && loop_level < 2 => {
                    let hi = rng.gen_range(1..8);
                    let lv = format!("i{loop_level}");
                    let _ = writeln!(out, "{pad}for {lv} in 0 .. {hi} {{");
                    stmts(
                        rng,
                        scalars,
                        arrays,
                        ins,
                        outs,
                        callables,
                        depth - 1,
                        loop_level + 1,
                        out,
                        &format!("{pad}  "),
                    );
                    let _ = writeln!(out, "{pad}}}");
                }
                6 if callables > 0 => {
                    let b = rng.gen_range(0..callables);
                    let e = expr(rng, scalars, arrays, ins, 1);
                    let _ = writeln!(out, "{pad}call b{b}({e});");
                }
                _ => {
                    let o = rng.gen_range(0..outs);
                    let e = expr(rng, scalars, arrays, ins, 1);
                    let _ = writeln!(out, "{pad}pout{o} = {e};");
                }
            }
        }
    }

    // Procedures: b0..bK, each only calling lower-numbered ones.
    let n_procs = rng.gen_range(1..=4);
    for b in 0..n_procs {
        let _ = writeln!(out, "proc b{b}(x : int<8>) {{");
        let _ = writeln!(out, "  v0 = v0 + x;");
        stmts(
            &mut rng, n_scalars, n_arrays, n_in, n_out, b, 2, 0, &mut out, "  ",
        );
        let _ = writeln!(out, "}}");
    }

    // One process driving everything.
    let _ = writeln!(out, "process Main {{");
    stmts(
        &mut rng, n_scalars, n_arrays, n_in, n_out, n_procs, 3, 0, &mut out, "  ",
    );
    let _ = writeln!(out, "  wait {};", rng.gen_range(1..100));
    let _ = writeln!(out, "}}");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_specs_survive_the_whole_pipeline(seed in 0u64..100_000) {
        let source = gen_spec(seed);

        // Parse and resolve.
        let rs = slif::speclang::parse_and_resolve(&source)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));

        // Pretty-printing is a fixed point through the parser.
        let printed = slif::speclang::pretty(rs.spec());
        let reparsed = slif::speclang::parse(&printed)
            .unwrap_or_else(|e| panic!("seed {seed} reparse: {e}\n{printed}"));
        prop_assert_eq!(slif::speclang::pretty(&reparsed), printed);

        // Build and validate SLIF.
        let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
        let arch = allocate_proc_asic(&mut design);
        let part = all_software_partition(&design, arch);
        part.validate(&design)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));

        // Channel annotations are internally consistent.
        for c in design.graph().channel_ids() {
            let ch = design.graph().channel(c);
            prop_assert!(ch.freq().is_consistent(), "seed {}: {}", seed, ch);
            prop_assert!(ch.bits() > 0);
        }

        // Full estimate suite runs.
        let report = DesignReport::compute(&design, &part)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));
        prop_assert_eq!(report.processes.len(), 1);

        // And the specification executes.
        let mut stim = Stimulus::new();
        for p in &rs.spec().ports {
            stim = stim.with_port(&p.name, PortStimulus::Ramp { start: 1, step: 3 });
        }
        let sim = simulate(
            &rs,
            &stim,
            SimConfig { rounds: 4, ..SimConfig::default() },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));
        prop_assert_eq!(sim.executions.get("Main"), Some(&4));
    }

    /// Dynamic access rates of random specs always respect the static
    /// [min, max] envelope.
    #[test]
    fn random_specs_respect_the_access_envelope(seed in 0u64..100_000) {
        let source = gen_spec(seed);
        let rs = slif::speclang::parse_and_resolve(&source).expect("valid by construction");
        let design = build_design(&rs, &TechnologyLibrary::proc_asic());
        let mut stim = Stimulus::new();
        for p in &rs.spec().ports {
            stim = stim.with_port(&p.name, PortStimulus::Sequence(vec![0, 7, 200, 3]));
        }
        let sim = simulate(&rs, &stim, SimConfig { rounds: 8, ..SimConfig::default() })
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{source}"));
        let g = design.graph();
        for c in g.channel_ids() {
            let ch = g.channel(c);
            let src = g.node(ch.src()).name();
            let dst = match ch.dst() {
                slif::core::AccessTarget::Node(n) => g.node(n).name().to_owned(),
                slif::core::AccessTarget::Port(p) => g.port(p).name().to_owned(),
            };
            if let Some(rate) = sim.accesses_per_execution(src, &dst) {
                let f = ch.freq();
                prop_assert!(
                    rate >= f.min as f64 - 1e-9 && rate <= f.max as f64 + 1e-9,
                    "seed {}: {}->{} dynamic {} outside [{}, {}]\n{}",
                    seed, src, dst, rate, f.min, f.max, source
                );
            }
        }
    }
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every node's ict/size/datapath weights and every channel's tag of one
/// design, one line each.
fn weights_and_tags(d: &Design) -> String {
    let g = d.graph();
    let mut out = String::new();
    for n in g.node_ids() {
        let node = g.node(n);
        let ict: Vec<_> = node.ict().iter().collect();
        let size: Vec<_> = node.size().iter().collect();
        let _ = writeln!(out, "{} ict {ict:?} size {size:?}", node.name());
    }
    for c in g.channel_ids() {
        let _ = writeln!(out, "{c:?} {:?}", g.channel(c).tag());
    }
    out
}

/// Generated specs the synthesis digest covers after the corpus.
const DIGEST_GENERATED_SPECS: u64 = 40;

/// Renderings of one spec built three ways with the extended library
/// (every processor and ASIC model): behavior granularity with and
/// without schedule-derived tags, and basic-block granularity.
fn synthesis_renderings(rs: &slif::speclang::ResolvedSpec) -> [String; 3] {
    let lib = TechnologyLibrary::extended();
    let mut tagged = BuildOptions::default();
    tagged.schedule_tags = true;
    [
        weights_and_tags(&build_design_with(rs, &lib, &BuildOptions::default())),
        weights_and_tags(&build_design_with(rs, &lib, &tagged)),
        weights_and_tags(&build_design_at(rs, &lib, Granularity::BasicBlock)),
    ]
}

/// Combined digest of [`synthesis_renderings`] over the corpus and
/// generated specs `0..DIGEST_GENERATED_SPECS`, pinned from the hash-map
/// block scheduler that the dense one replaced. Any change to a weight,
/// a datapath split or a concurrency tag moves it.
const SYNTHESIS_DIGEST: u64 = 0x6e84d6db865f9b08;

/// Per-spec digests (low 32 bits) behind [`SYNTHESIS_DIGEST`], so a
/// mismatch can name the first spec whose design moved.
const SYNTHESIS_SPEC_DIGESTS: [(&str, u32); 44] = [
    ("ans", 0x74d793ca), ("ether", 0x8fe2e979), ("fuzzy", 0xa35f1b1b), ("vol", 0xb232ff89),
    ("gen0", 0x27a501c9), ("gen1", 0xb967c976), ("gen2", 0xe886a8d3), ("gen3", 0xf1a9d487),
    ("gen4", 0x77ce8f16), ("gen5", 0xd527b9d6), ("gen6", 0x1cbdcc9f), ("gen7", 0xe40001e4),
    ("gen8", 0xf11576b2), ("gen9", 0x5b585566), ("gen10", 0x396f74e7), ("gen11", 0x4f31d226),
    ("gen12", 0xa4f25221), ("gen13", 0xe98cc090), ("gen14", 0x4ba6d2a6), ("gen15", 0x4d7ec18c),
    ("gen16", 0xb33c9139), ("gen17", 0x3f9f0021), ("gen18", 0xdabae2ae), ("gen19", 0x9898550b),
    ("gen20", 0x4e11e05f), ("gen21", 0x55985d8c), ("gen22", 0x926841d7), ("gen23", 0x169367b0),
    ("gen24", 0x6f8d87fa), ("gen25", 0x14d1a90e), ("gen26", 0x6ed7854d), ("gen27", 0x250728c3),
    ("gen28", 0xf2de99bf), ("gen29", 0xd203f25c), ("gen30", 0xff98dcfe), ("gen31", 0x47016f71),
    ("gen32", 0xdfe30258), ("gen33", 0x557ff799), ("gen34", 0xd5e14315), ("gen35", 0x8a6c8b8a),
    ("gen36", 0xc74e3c6c), ("gen37", 0x97f3e217), ("gen38", 0x89055f5f), ("gen39", 0xe4908355),
];

#[test]
fn design_weights_and_tags_match_the_pinned_digest() {
    let mut specs: Vec<(String, slif::speclang::ResolvedSpec)> = corpus::all()
        .iter()
        .map(|e| (e.name.to_string(), e.load().unwrap()))
        .collect();
    for seed in 0..DIGEST_GENERATED_SPECS {
        let rs = slif::speclang::parse_and_resolve(&gen_spec(seed)).unwrap();
        specs.push((format!("gen{seed}"), rs));
    }
    let mut combined = FNV_OFFSET;
    let mut per_spec = Vec::new();
    let mut tagged_specs = 0;
    for (name, rs) in &specs {
        let renderings = synthesis_renderings(rs);
        tagged_specs += usize::from(renderings[0] != renderings[1]);
        combined = renderings.iter().fold(combined, |h, r| fnv1a(h, r.as_bytes()));
        let h = renderings.iter().fold(FNV_OFFSET, |h, r| fnv1a(h, r.as_bytes()));
        per_spec.push((name.as_str(), h as u32, renderings));
    }
    // The tagged builds must exercise the schedule, not just repeat the
    // untagged ones.
    assert!(tagged_specs >= 5, "only {tagged_specs} specs got schedule tags");
    if combined != SYNTHESIS_DIGEST {
        eprintln!("per-spec digests of this tree:");
        for chunk in per_spec.chunks(4) {
            let row: Vec<String> =
                chunk.iter().map(|(n, h, _)| format!("(\"{n}\", {h:#010x}),")).collect();
            eprintln!("    {}", row.join(" "));
        }
        let (name, _, renderings) = per_spec
            .iter()
            .zip(SYNTHESIS_SPEC_DIGESTS)
            .find(|((_, h, _), (_, pinned))| h != pinned)
            .map_or(&per_spec[0], |(spec, _)| spec);
        panic!(
            "design weights or tags moved: digest {combined:#018x}, \
             pinned {SYNTHESIS_DIGEST:#018x}; first differing spec {name} \
             (behavior, behavior + schedule tags, basic block):\n{}",
            renderings.join("\n")
        );
    }
}
