//! `pipeline_cold`: each spec of a seeded synthetic family (rungs near
//! 2k, 10k and 30k design nodes) and of the four-spec corpus is one op,
//! run cold from its file to a stored design: read → parse → flow
//! lowering → resolve → build/allocate → compile → estimate → anneal →
//! full analysis → `.slifb` and `.slif` write+read → store put and
//! compiled get. Ops run in whole passes over the family until the
//! measured time is spent; at least two passes run, so every spec's
//! reports can be compared across passes.
//!
//! Oracles judge each spec op, but the latency samples are whole passes:
//! the specs of one pass differ in size by more than 100x, so
//! percentiles over single specs would jump between rungs as the number
//! of passes changes.

use super::raised_parse_limits;
use crate::calib::HostClock;
use crate::inputs::{near, synth_spec};
use crate::rng::Rng;
use crate::stats::fnv64;
use crate::trace::Tracer;
use crate::{repeated_setup, Config, Outcome};
use slif_analyze::{analyze_compiled, analyze_compiled_with_flow, AnalysisConfig, SourceMap};
use slif_core::{CompiledDesign, Partition};
use slif_estimate::DesignReport;
use slif_explore::{simulated_annealing, AnnealingConfig, Objectives};
use slif_formats::{read_bytes, write_bytes, Encoding, FormatLimits, ReadOutcome, Strictness};
use slif_frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif_speclang::{corpus, parse_with_limits, resolve, FlowProgram};
use slif_store::DesignCache;
use slif_techlib::TechnologyLibrary;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One spec of the family, as set-up leaves it on disk.
struct SpecFile {
    name: String,
    path: PathBuf,
    corpus: bool,
}

/// What the oracles inspect after an op.
struct Products {
    nodes: usize,
    slifb: Vec<u8>,
    slif_len: usize,
    from_binary: ReadOutcome,
    from_text: ReadOutcome,
    compiled: CompiledDesign,
    partition: Partition,
    fetched: Option<CompiledDesign>,
    estimate_hash: u64,
    analysis_hash: u64,
    analysis_clean: bool,
    evaluations: u64,
}

/// Generates the family and writes every spec to its own file.
fn set_up(cfg: &Config, dir: &Path) -> Vec<SpecFile> {
    let mut rng = Rng::new(cfg.seed, 1);
    let mut specs: Vec<(String, String, bool)> = corpus::all()
        .iter()
        .map(|e| (e.name.to_owned(), e.source.to_owned(), false))
        .collect();
    for (i, &rung) in cfg.sizes.pipeline_rungs.iter().enumerate() {
        let target = near(&mut rng, rung);
        specs.push((
            format!("synth{i}"),
            synth_spec(&mut rng, target).source,
            true,
        ));
    }
    std::fs::create_dir_all(dir).expect("create the spec directory");
    specs
        .into_iter()
        .map(|(name, source, synthetic)| {
            let path = dir.join(format!("{name}.sl"));
            std::fs::write(&path, source).expect("write a generated spec");
            SpecFile {
                name,
                path,
                corpus: !synthetic,
            }
        })
        .collect()
}

/// Stages that wait on the disk: timed by the wall clock, not rescaled.
const WAITING: [&str; 3] = ["io.read_spec", "io.write_read", "store.put"];

/// Runs an op's stages, each in its own span, and reads the host clock
/// between them so a long op follows the host's speed.
struct Stages<'a> {
    tracer: &'a mut Tracer,
    clock: &'a mut HostClock,
}

impl Stages<'_> {
    fn run<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let value = self.tracer.time(name, f);
        let clock = &mut *self.clock;
        if WAITING.contains(&name) {
            clock.split_waiting();
        } else {
            self.tracer.time("host.kernel", || clock.split());
        }
        value
    }
}

/// One cold op over `spec`, every layer call in its own span.
fn op(
    out: &mut Outcome,
    spec: &SpecFile,
    cache: &DesignCache,
    dir: &Path,
    anneal: AnnealingConfig,
) -> Result<Products, String> {
    let mut tr = Stages {
        tracer: &mut out.tracer,
        clock: &mut out.clock,
    };
    let limits = raised_parse_limits();
    let lib = TechnologyLibrary::proc_asic();
    let source = tr
        .run("io.read_spec", || std::fs::read_to_string(&spec.path))
        .map_err(|e| format!("read {}: {e}", spec.name))?;
    let ast = tr
        .run("speclang.parse", || parse_with_limits(&source, &limits))
        .map_err(|e| format!("parse {}: {e}", spec.name))?;
    let flow = tr.run("speclang.flow_lower", || FlowProgram::from_spec(&ast));
    let rs = tr
        .run("speclang.resolve", || resolve(ast))
        .map_err(|e| format!("resolve {}: {e}", spec.name))?;
    let (design, partition) = tr.run("frontend.build", || {
        let mut design = build_design(&rs, &lib);
        let arch = allocate_proc_asic(&mut design);
        let partition = all_software_partition(&design, arch);
        (design, partition)
    });
    let compiled = tr.run("core.compile", || CompiledDesign::compile(&design));
    let estimate = tr
        .run("estimate.report", || {
            DesignReport::compute(&design, &partition)
        })
        .map_err(|e| format!("estimate {}: {e}", spec.name))?;
    let annealed = tr
        .run("explore.anneal", || {
            simulated_annealing(&design, partition.clone(), &Objectives::new(), anneal, 7)
        })
        .map_err(|e| format!("anneal {}: {e}", spec.name))?;
    let analysis = tr.run("analyze.full", || {
        let sources = SourceMap::from_spec(rs.spec());
        analyze_compiled_with_flow(
            &compiled,
            Some(&partition),
            &AnalysisConfig::new(),
            &flow,
            Some(&sources),
        )
    });
    let format_err = |e| format!("interchange {}: {e}", spec.name);
    let fmt_limits = FormatLimits::default();
    let slifb = tr
        .run("formats.slifb_write", || {
            write_bytes(&design, Some(&partition), Encoding::Binary)
        })
        .map_err(format_err)?;
    let bin_path = dir.join(format!("{}.slifb", spec.name));
    let slifb_in = tr
        .run("io.write_read", || {
            std::fs::write(&bin_path, &slifb).and_then(|()| std::fs::read(&bin_path))
        })
        .map_err(|e| format!("slifb file {}: {e}", spec.name))?;
    let from_binary = tr
        .run("formats.slifb_read", || {
            read_bytes(&slifb_in, Strictness::Strict, &fmt_limits)
        })
        .map_err(format_err)?;
    let slif = tr
        .run("formats.slif_write", || {
            write_bytes(
                &from_binary.design,
                from_binary.partition.as_ref(),
                Encoding::Text,
            )
        })
        .map_err(format_err)?;
    let text_path = dir.join(format!("{}.slif", spec.name));
    let slif_in = tr
        .run("io.write_read", || {
            std::fs::write(&text_path, &slif).and_then(|()| std::fs::read(&text_path))
        })
        .map_err(|e| format!("slif file {}: {e}", spec.name))?;
    let from_text = tr
        .run("formats.slif_read", || {
            read_bytes(&slif_in, Strictness::Strict, &fmt_limits)
        })
        .map_err(format_err)?;
    let key = tr
        .run("store.put", || {
            cache.put_with_compiled(source.as_bytes(), &design, &compiled)
        })
        .map_err(|e| format!("store put {}: {e}", spec.name))?;
    let fetched = tr.run("store.get_compiled", || cache.get_compiled_by_key(&key));
    Ok(Products {
        nodes: design.graph().node_count(),
        slif_len: slif.len(),
        slifb,
        from_binary,
        from_text,
        compiled,
        partition,
        fetched,
        estimate_hash: fnv64(format!("{estimate:?}").as_bytes()),
        analysis_hash: fnv64(analysis.to_string().as_bytes()),
        analysis_clean: analysis.is_clean(),
        evaluations: annealed.evaluations,
    })
}

/// The oracles for one op's products.
fn check(spec: &SpecFile, p: &Products, seen: &mut HashMap<String, (u64, u64)>) -> Vec<String> {
    let mut problems = Vec::new();
    let name = &spec.name;
    if !p.from_binary.verified || !p.from_text.verified {
        problems.push(format!("{name}: a strict read came back unverified"));
    }
    match write_bytes(
        &p.from_text.design,
        p.from_text.partition.as_ref(),
        Encoding::Binary,
    ) {
        Ok(again) if again == p.slifb => {}
        Ok(_) => problems.push(format!(
            "{name}: .slifb -> .slif -> .slifb is not byte-identical"
        )),
        Err(e) => problems.push(format!("{name}: re-encoding failed: {e}")),
    }
    if p.fetched.as_ref() != Some(&p.compiled) {
        problems.push(format!(
            "{name}: the stored compiled design differs from the compile"
        ));
    }
    if spec.corpus && !p.analysis_clean {
        problems.push(format!("{name}: corpus spec does not lint clean"));
    }
    let hashes = (p.estimate_hash, p.analysis_hash);
    if *seen.entry(name.clone()).or_insert(hashes) != hashes {
        problems.push(format!(
            "{name}: estimate or analysis differs from an earlier pass"
        ));
    }
    problems
}

/// Runs the workload.
pub fn run(cfg: &Config, epoch: Instant) -> Outcome {
    let mut out = Outcome::new(cfg.trace, epoch);
    let spec_dir = cfg.work_dir.join("specs");
    let (specs, setup) = repeated_setup(
        &cfg.sizes,
        &mut out.clock,
        || out.tracer.time("setup", || set_up(cfg, &spec_dir)),
        drop,
    );
    out.setup_s = setup.ref_s;
    let anneal = AnnealingConfig {
        t0: 10.0,
        alpha: 0.8,
        moves_per_temp: cfg.sizes.pipeline_anneal_moves,
        t_min: 0.1,
    };
    let mut seen = HashMap::new();
    let (mut nodes_pass, mut slifb_pass) = (0.0, 0.0);
    let (mut slifb_bytes, mut slif_bytes, mut evaluations) = (0.0, 0.0, 0.0);
    let mut pass = 0u64;
    while pass < 2 || out.busy_s < cfg.seconds {
        let pass_dir = cfg.work_dir.join(format!("pass{pass}"));
        let cache = DesignCache::open(&pass_dir.join("store")).expect("open a fresh design store");
        let mut pass_ms = 0.0;
        for (i, spec) in specs.iter().enumerate() {
            let op_id = pass * specs.len() as u64 + i as u64 + 1;
            out.tracer.set_op(op_id);
            let span = out.tracer.begin("op");
            out.clock.start();
            let products = op(&mut out, spec, &cache, &pass_dir, anneal);
            let lap = out.clock.stop();
            out.tracer.end(span);
            out.tracer.set_op(0);
            out.busy_s += lap.raw_s;
            out.ref_busy_s += lap.ref_s;
            pass_ms += lap.ref_s * 1e3;
            match products {
                Ok(p) => {
                    if out.tracer.enabled() {
                        // A replay outside the op: the graph passes alone.
                        let replay = out.tracer.begin("replay");
                        out.tracer.time("analyze.graph", || {
                            analyze_compiled(
                                &p.compiled,
                                Some(&p.partition),
                                &AnalysisConfig::new(),
                            )
                        });
                        out.tracer.end(replay);
                    }
                    out.work += p.nodes as f64;
                    slifb_bytes += p.slifb.len() as f64;
                    slif_bytes += p.slif_len as f64;
                    evaluations += p.evaluations as f64;
                    if pass == 0 {
                        nodes_pass += p.nodes as f64;
                        slifb_pass += p.slifb.len() as f64;
                    }
                    let problems = check(spec, &p, &mut seen);
                    out.judge(problems);
                }
                Err(e) => out.judge(vec![e]),
            }
        }
        out.ops_ms.push(pass_ms);
        drop(cache);
        let _ = std::fs::remove_dir_all(&pass_dir);
        pass += 1;
    }
    let ops = out.attempted as f64;
    out.summary.push(format!(
        "pipeline_cold: {pass} passes x {} specs, pipeline_nodes_per_s {:.0} at reference speed \
         ({:.0} wall-clock) (n={} specs), failed_share {:.4}",
        specs.len(),
        out.rates().1,
        out.rates().0,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    if cfg.trace {
        let t = &out.tracer;
        let l = &mut out.layers;
        for (metric, span) in [
            ("speclang.parse_ms", "speclang.parse"),
            ("speclang.resolve_ms", "speclang.resolve"),
            ("speclang.flow_lower_ms", "speclang.flow_lower"),
            ("frontend.build_ms", "frontend.build"),
            ("core.compile_ms", "core.compile"),
            ("estimate.report_ms", "estimate.report"),
            ("explore.anneal_ms", "explore.anneal"),
            ("analyze.full_ms", "analyze.full"),
            ("analyze.graph_ms", "analyze.graph"),
            ("store.put_ms", "store.put"),
            ("store.get_compiled_ms", "store.get_compiled"),
        ] {
            l.put(metric, t.total_ms(span) / ops.max(1.0), "ms");
        }
        let mb_s = |bytes: f64, span: &str| bytes / (1024.0 * 1024.0) / (t.total_ms(span) / 1e3);
        l.put(
            "formats.slifb_write_mb_s",
            mb_s(slifb_bytes, "formats.slifb_write"),
            "MB/s",
        );
        l.put(
            "formats.slifb_read_mb_s",
            mb_s(slifb_bytes, "formats.slifb_read"),
            "MB/s",
        );
        l.put(
            "formats.slif_write_mb_s",
            mb_s(slif_bytes, "formats.slif_write"),
            "MB/s",
        );
        l.put(
            "formats.slif_read_mb_s",
            mb_s(slif_bytes, "formats.slif_read"),
            "MB/s",
        );
        l.put("formats.slifb_bytes", slifb_pass, "bytes");
        l.put("core.nodes", nodes_pass, "count");
        l.put("explore.evaluations", evaluations, "count");
    }
    out
}
