//! Serve a batch of mixed evaluation jobs through the runtime service.
//!
//! The paper's point is that SLIF makes design evaluation cheap enough
//! to be interactive. This example treats that as a serving problem: a
//! 4-worker `JobService` receives a batch of parse, estimate, and
//! exploration jobs with some hostile inputs mixed in — a malformed
//! spec, an oversized spec, and an injected worker panic — and keeps
//! serving while each of them fails in its own typed way.
//!
//! Run with: `cargo run --release --example serve_batch`

use slif::estimate::EstimatorConfig;
use slif::explore::{Algorithm, Objectives};
use slif::frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif::runtime::{Job, JobOutcome, JobService, RunLimits, ServiceConfig};
use slif::speclang::{corpus, ParseLimits};
use slif::techlib::TechnologyLibrary;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Worker panics are caught and reported through `JobOutcome`, so the
    // default hook's backtrace on stderr is just noise here. Embedders
    // that want panic logs can keep (or replace) the hook instead.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name() != Some("slif-worker") {
            default_hook(info);
        }
    }));

    // A real design for the estimation and exploration jobs.
    let rs = corpus::by_name("fuzzy").expect("fuzzy is in the corpus").load()?;
    let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let arch = allocate_proc_asic(&mut design);
    let partition = all_software_partition(&design, arch);

    // A service with a tight parser byte cap, so the oversized job is
    // shed at admission, and a short default deadline for everything.
    let limits = RunLimits::default().with_parse(ParseLimits::default().with_max_bytes(16_384));
    let svc = JobService::start(
        ServiceConfig::new()
            .with_workers(4)
            .with_queue_capacity(64)
            .with_limits(limits)
            .with_default_deadline(Duration::from_secs(10)),
    );

    let batch: Vec<(&str, Job)> = vec![
        (
            "parse every corpus spec",
            Job::ParseSpec {
                source: corpus::by_name("ans").expect("ans exists").source.to_owned(),
            },
        ),
        (
            "estimate the fuzzy controller",
            Job::Estimate {
                design: design.clone(),
                partition: partition.clone(),
                config: EstimatorConfig::default(),
            },
        ),
        (
            "explore 200 random partitions",
            Job::Explore {
                design: design.clone(),
                start: partition.clone(),
                objectives: Objectives::new(),
                algorithm: Algorithm::RandomSearch {
                    iterations: 200,
                    seed: 7,
                },
            },
        ),
        (
            "malformed spec",
            Job::ParseSpec {
                source: "system ;\nprocess { x = ; }\n".to_owned(),
            },
        ),
        (
            "injected worker panic",
            Job::InjectedPanic {
                message: "demo panic".to_owned(),
            },
        ),
    ];

    let mut handles = Vec::new();
    for (label, job) in batch {
        match svc.submit(job) {
            Ok(handle) => handles.push((label, handle)),
            Err(rejected) => println!("{label:32} rejected at admission: {rejected}"),
        }
    }

    // The oversized spec never reaches a worker: admission refuses it.
    let oversized = "-- padding\n".repeat(4096);
    if let Err(rejected) = svc.submit(Job::ParseSpec { source: oversized }) {
        println!("{:32} rejected at admission: {rejected}", "oversized spec");
    }

    for (label, handle) in handles {
        match handle.wait() {
            JobOutcome::Completed { output } => {
                println!("{label:32} completed: {}", summarize(&output));
            }
            JobOutcome::Failed { error } => println!("{label:32} failed: {error}"),
            other => println!("{label:32} ended: {other:?}"),
        }
    }

    // The service absorbed the panic (caught once, reported, never
    // retried) and the health snapshot shows the whole story.
    println!("\n{}", svc.health());
    svc.shutdown();
    Ok(())
}

fn summarize(output: &slif::runtime::JobOutput) -> String {
    match output {
        slif::runtime::JobOutput::Parsed { behaviors, .. } => {
            format!("parsed, {behaviors} behaviors")
        }
        slif::runtime::JobOutput::Compiled { nodes, channels, .. } => {
            format!("compiled, {nodes} nodes / {channels} channels")
        }
        slif::runtime::JobOutput::Estimated(report) => {
            format!("{} process estimates", report.processes.len())
        }
        slif::runtime::JobOutput::Explored(result) => format!(
            "best cost {:.3} after {} evaluations ({})",
            result.result.cost, result.result.evaluations, result.stop
        ),
        other => format!("{other:?}"),
    }
}
