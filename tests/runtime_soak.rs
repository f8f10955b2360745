//! Soak test for the `slif-runtime` job service.
//!
//! The contract under test, end to end: a multi-worker service fed a
//! 500-job mixed stream — clean parse/compile/estimate/explore/analyze
//! jobs (including lint analyses of deliberately defect-injected
//! designs) interleaved with malformed specs, corrupted specs,
//! over-limit inputs, and seeded worker panics (over 30% of the stream
//! faulted) — must
//!
//! * never abort the process (every panic is caught and isolated),
//! * give **every** job exactly one terminal state: a typed rejection at
//!   admission or exactly one [`JobOutcome`],
//! * return results for clean jobs that are **bit-identical** to running
//!   the same job inline with [`Job::run_inline`] (the service adds
//!   policy, never semantics),
//! * give identical requests identical answers whatever else is in
//!   flight: runs of estimates that fail at full strictness each fail
//!   with exactly the inline error — a burst of failures never changes
//!   how the next estimate is run,
//! * run each panicking job exactly once and report its planted message,
//! * keep its books: terminal-state counters must sum to the admitted
//!   job count, and the health snapshot must reflect the carnage.

use slif::analyze::AnalysisConfig;
use slif::core::faults::{FaultInjector, RuntimeFaultKind};
use slif::core::gen::DesignGenerator;
use slif::core::{ClassKind, Design, NodeKind, Partition};
use slif::estimate::EstimatorConfig;
use slif::explore::{Algorithm, Objectives};
use slif::runtime::{Job, JobError, JobOutcome, JobService, Rejected, RunLimits, ServiceConfig};
use slif::speclang::ParseLimits;
use std::time::Duration;

const GOOD_SPEC: &str = "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }\n";
const MALFORMED_SPEC: &str = "system ;\nprocess { x = ; }\nif not\n";
const JOBS: usize = 500;
const WORKERS: usize = 4;
/// Each stream slot whose index mod 100 falls here carries the same
/// strict-failing estimate: five runs of ten in a row.
const STRICT_FAILING_RUN: std::ops::Range<usize> = 40..50;

/// A small design with complete annotations, so estimation and
/// exploration succeed deterministically. With `annotated` false, node A
/// carries no weights, so estimation at full strictness fails with a
/// typed missing-weight error — every time.
fn soak_design(annotated: bool) -> (Design, Partition) {
    let mut d = Design::new("soak");
    let class = d.add_class("proc", ClassKind::StdProcessor);
    let asic = d.add_class("asic", ClassKind::CustomHw);
    let a = d.graph_mut().add_node("A", NodeKind::process());
    let b = d.graph_mut().add_node("B", NodeKind::procedure());
    let call = d
        .graph_mut()
        .add_channel(a, b.into(), slif::core::AccessKind::Call)
        .expect("valid channel");
    let weighted: &[_] = if annotated {
        &[(a, 40u64, 200u64), (b, 10, 80)]
    } else {
        &[(b, 10, 80)]
    };
    for &(node, ict, size) in weighted {
        for cls in [class, asic] {
            d.graph_mut().node_mut(node).ict_mut().set(cls, ict);
            d.graph_mut().node_mut(node).size_mut().set(cls, size);
        }
    }
    let cpu = d.add_processor("cpu0", class);
    let hw = d.add_processor("asic0", asic);
    let bus = d.add_bus(slif::core::Bus::new("bus0", 16, 1, 4));
    let mut p = Partition::new(&d);
    p.assign_node(a, cpu.into());
    p.assign_node(b, hw.into());
    p.assign_channel(call, bus);
    (d, p)
}

/// What the stream generator expects of each job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expectation {
    /// Clean: must complete, bit-identical to inline execution.
    Clean,
    /// Malformed input: must fail with a typed error, matching inline.
    Malformed,
    /// Over-limit input: must be shed at admission with `TooLarge`.
    OverLimit,
    /// Seeded panic: must run once and fail `Panicked` with its message.
    Panic,
    /// Estimate without fallbacks on a weightless design: must fail with
    /// exactly the inline error, however many failed before it.
    StrictFailing,
}

fn job_stream(limits: &RunLimits) -> Vec<(Job, Expectation)> {
    let (design, partition) = soak_design(true);
    let strict_failing = {
        let (design, partition) = soak_design(false);
        Job::Estimate {
            design,
            partition,
            config: EstimatorConfig::default(),
        }
    };
    assert!(strict_failing.run_inline(limits).is_err());
    // Seeded fault plan: ~30% of slots carry a runtime fault (half of
    // them worker panics). `QueueFull` slots submit real work — queue
    // saturation is provoked by the submission burst itself and absorbed
    // by the bounded-retry submit loop in the test body.
    let plan = FaultInjector::new(0x50A).plan_runtime_faults(JOBS, 0.3);
    let mut spec_corruptor = FaultInjector::new(99);
    let mut defect_injector = FaultInjector::new(0xA11);
    let oversized = "-- padding\n".repeat(limits.parse.max_bytes / 8);
    (0..JOBS)
        .map(|i| {
            if STRICT_FAILING_RUN.contains(&(i % 100)) {
                return (strict_failing.clone(), Expectation::StrictFailing);
            }
            if plan[i] == Some(RuntimeFaultKind::WorkerPanic) {
                return (
                    Job::InjectedPanic {
                        message: format!("seeded panic #{i}"),
                    },
                    Expectation::Panic,
                );
            }
            match i % 10 {
                3 => (
                    Job::ParseSpec {
                        source: MALFORMED_SPEC.to_owned(),
                    },
                    Expectation::Malformed,
                ),
                5 => {
                    // Seeded corruption may or may not still parse:
                    // classify by the inline reference executor, which
                    // is the semantics the service must reproduce.
                    let (corrupted, _why) = spec_corruptor.corrupt_spec(GOOD_SPEC);
                    let job = Job::ParseSpec { source: corrupted };
                    let expectation = if job.run_inline(limits).is_err() {
                        Expectation::Malformed
                    } else {
                        Expectation::Clean
                    };
                    (job, expectation)
                }
                7 => (
                    Job::ParseSpec {
                        source: oversized.clone(),
                    },
                    Expectation::OverLimit,
                ),
                0 => (
                    Job::Estimate {
                        design: design.clone(),
                        partition: partition.clone(),
                        config: EstimatorConfig::default(),
                    },
                    Expectation::Clean,
                ),
                1 => (
                    Job::CompileDesign {
                        design: design.clone(),
                    },
                    Expectation::Clean,
                ),
                4 => (
                    Job::Analyze {
                        design: design.clone(),
                        partition: Some(partition.clone()),
                        config: AnalysisConfig::new(),
                        source: None,
                    },
                    Expectation::Clean,
                ),
                6 => {
                    // Analysis is total: planted defects come back as
                    // findings, not failures, so these jobs still complete
                    // (bit-identical to inline, like every clean job).
                    let (mut dd, mut dp) = DesignGenerator::new(i as u64)
                        .behaviors(6)
                        .variables(4)
                        .processors(2)
                        .buses(2)
                        .build();
                    let _ = defect_injector.corrupt_analyzable(&mut dd, &mut dp, 2);
                    (
                        Job::Analyze {
                            design: dd,
                            partition: Some(dp),
                            config: AnalysisConfig::new(),
                            source: None,
                        },
                        Expectation::Clean,
                    )
                }
                2 => (
                    Job::Explore {
                        design: design.clone(),
                        start: partition.clone(),
                        objectives: Objectives::default(),
                        algorithm: Algorithm::RandomSearch {
                            iterations: 20,
                            seed: i as u64,
                        },
                    },
                    Expectation::Clean,
                ),
                _ => (
                    Job::ParseSpec {
                        source: GOOD_SPEC.to_owned(),
                    },
                    Expectation::Clean,
                ),
            }
        })
        .collect()
}

#[test]
fn soak_500_mixed_jobs_with_faults() {
    let limits =
        RunLimits::default().with_parse(ParseLimits::default().with_max_bytes(4096));
    let svc = JobService::start(
        ServiceConfig::new()
            .with_workers(WORKERS)
            .with_queue_capacity(32)
            .with_limits(limits)
            .with_watchdog_interval(Duration::from_millis(5)),
    );

    let stream = job_stream(&limits);
    let faulted = stream
        .iter()
        .filter(|(_, e)| *e != Expectation::Clean)
        .count();
    assert!(
        faulted * 10 >= JOBS * 3,
        "only {faulted}/{JOBS} jobs faulted; the soak needs ≥30%"
    );
    let expected_over_limit = stream
        .iter()
        .filter(|(_, e)| *e == Expectation::OverLimit)
        .count();
    assert!(expected_over_limit > 0, "stream carries over-limit jobs");
    assert!(
        stream
            .windows(6)
            .any(|w| w.iter().all(|(_, e)| *e == Expectation::StrictFailing)),
        "stream carries at least six strict-failing estimates in a row"
    );

    // Submit everything, with bounded patience for backpressure: a
    // QueueFull rejection is retried briefly; if the queue never opens
    // up, that rejection is the job's terminal state (shed).
    let mut handles = Vec::new();
    let mut queue_full_rejections = 0usize;
    let mut shed_full = 0usize;
    let mut shed_too_large = 0usize;
    for (job, expectation) in stream {
        let mut submitted = None;
        for _ in 0..500 {
            match svc.submit(job.clone()) {
                Ok(handle) => {
                    submitted = Some(handle);
                    break;
                }
                Err(Rejected::QueueFull { capacity }) => {
                    assert_eq!(capacity, 32);
                    queue_full_rejections += 1;
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(Rejected::TooLarge { .. }) => {
                    assert_eq!(
                        expectation,
                        Expectation::OverLimit,
                        "only over-limit jobs may be shed as too large"
                    );
                    shed_too_large += 1;
                    break;
                }
                Err(other) => panic!("unexpected rejection: {other}"),
            }
        }
        match (submitted, expectation) {
            (Some(handle), _) => handles.push((handle, job, expectation)),
            (None, Expectation::OverLimit) => {}
            (None, _) => shed_full += 1,
        }
    }
    assert_eq!(
        shed_too_large, expected_over_limit,
        "every over-limit job is shed at admission, none executes"
    );

    // Every admitted job reaches exactly one terminal state.
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut panic_jobs = 0u64;
    for (handle, job, expectation) in &handles {
        let outcome = handle.wait();
        assert_eq!(
            handle.try_outcome().as_ref(),
            Some(&outcome),
            "job {} changed terminal state",
            handle.id()
        );
        match outcome {
            JobOutcome::Completed { output } => {
                completed += 1;
                assert!(
                    matches!(expectation, Expectation::Clean | Expectation::Malformed),
                    "a {expectation:?} job cannot complete"
                );
                // Clean jobs are bit-identical to inline execution.
                let inline = job
                    .run_inline(&limits)
                    .unwrap_or_else(|e| panic!("{} diverged from inline: {e}", job.kind()));
                assert_eq!(output, inline, "{} diverged from inline", job.kind());
            }
            JobOutcome::Failed { error } => {
                failed += 1;
                match (expectation, job) {
                    (Expectation::Panic, Job::InjectedPanic { message }) => {
                        panic_jobs += 1;
                        let planted = JobError::Panicked {
                            message: message.clone(),
                        };
                        assert_eq!(error, planted, "job {}", handle.id());
                    }
                    (Expectation::StrictFailing, _) => {
                        let inline = job.run_inline(&limits);
                        assert_eq!(Err(error), inline, "job {} diverged from inline", handle.id());
                    }
                    (Expectation::Malformed, _) => {
                        assert!(
                            job.run_inline(&limits).is_err(),
                            "{} failed in service but succeeds inline: {error}",
                            job.kind()
                        );
                    }
                    (other, _) => panic!("{other:?} job must not fail: {error}"),
                }
            }
            other => panic!("unexpected terminal state {other:?}"),
        }
    }

    // The books balance: admitted = completed + failed, and the health
    // snapshot agrees with what we observed.
    std::thread::sleep(Duration::from_millis(25)); // let the watchdog respawn stragglers
    let health = svc.health();
    assert_eq!(completed + failed, handles.len());
    assert_eq!(health.completed as usize, completed);
    assert_eq!(health.failed as usize, failed);
    assert_eq!(health.submitted as usize, handles.len());
    assert_eq!(
        health.shed as usize,
        shed_too_large + queue_full_rejections,
        "every admission rejection is counted as shed"
    );
    assert!(panic_jobs > 0, "panic jobs were injected");
    assert_eq!(health.worker_panics, panic_jobs, "each panic job ran exactly once");
    assert_eq!(health.in_flight, 0);
    assert_eq!(health.queue_depth, 0);
    assert!(health.latency.count() > 0);
    assert_eq!(health.workers_alive, WORKERS, "pool held at strength");
    assert_eq!(
        handles.len() + shed_full + shed_too_large,
        JOBS,
        "every job was admitted or shed — none vanished"
    );

    svc.shutdown();
    // Shutdown is clean and admissions are refused afterwards.
    assert!(matches!(
        svc.submit(Job::ParseSpec {
            source: GOOD_SPEC.to_owned()
        }),
        Err(Rejected::ShuttingDown)
    ));
}
