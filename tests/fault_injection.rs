//! Fault-injection suite: seeded corruption through the whole pipeline.
//!
//! The robustness contract of the workspace is that a corrupted design or
//! specification is *reported* — by `validate`, by a `CoreError`, or by
//! parser diagnostics — and never panics. This suite drives hundreds of
//! seeded mutations (well over the 200 the roadmap asks for) through
//! parse → resolve → build → validate → estimate and asserts exactly
//! that, plus the recovery half of the contract: estimator defaults turn
//! missing-weight errors into warnings.

use proptest::prelude::*;
use slif::core::faults::{FaultInjector, RuntimeFaultKind, ALL_CHECKPOINT_FAULT_KINDS};
use slif::core::gen::DesignGenerator;
use slif::core::validate::validate;
use slif::core::{CoreError, Design, Partition};
use slif::estimate::{DesignReport, EstimatorConfig, IncrementalEstimator};
use slif::explore::{
    explore, resume, Algorithm, AnnealingConfig, CheckpointError, ExplorationCheckpoint,
    Objectives, StopReason, Supervisor,
};
use slif::frontend::{all_software_partition, allocate_proc_asic, build_design};
use slif::runtime::{Job, JobOutcome, JobService, ServiceConfig};
use slif::speclang::corpus;
use slif::techlib::TechnologyLibrary;
use std::path::PathBuf;

/// Runs every estimator over a (possibly corrupted) design and insists on
/// a `Result`, never a panic. Returns whether estimation succeeded.
fn estimate_survives(
    design: &slif::core::Design,
    partition: &slif::core::Partition,
) -> Result<DesignReport, CoreError> {
    DesignReport::compute(design, partition)
}

#[test]
fn corrupted_designs_are_reported_not_panicked() {
    let mut total_mutations = 0usize;
    let mut detected = 0usize;
    for seed in 0..120u64 {
        let (mut design, mut partition) = DesignGenerator::new(seed)
            .behaviors(4 + (seed % 7) as usize)
            .variables(2 + (seed % 5) as usize)
            .processors(1 + (seed % 3) as usize)
            .memories((seed % 2) as usize)
            .buses(1 + (seed % 2) as usize)
            .build();
        let count = 1 + (seed % 4) as usize;
        let applied = FaultInjector::new(seed).corrupt(&mut design, &mut partition, count);
        assert_eq!(applied.len(), count, "seed {seed} applied too few faults");
        total_mutations += applied.len();

        // Validation sweeps the damage without panicking...
        let report = validate(&design, Some(&partition));
        if !report.is_clean() {
            detected += 1;
        }
        // ...and estimation returns a Result either way. A clean report is
        // a promise: estimation must then succeed.
        let estimated = estimate_survives(&design, &partition);
        if report.is_clean() {
            let faults: Vec<String> = applied.iter().map(ToString::to_string).collect();
            assert!(
                estimated.is_ok(),
                "seed {seed}: validate reported clean but estimation failed: {:?}\nfaults: {}",
                estimated.err(),
                faults.join(", ")
            );
        }
    }
    assert!(
        total_mutations >= 200,
        "suite applied only {total_mutations} mutations"
    );
    // Every fault class is individually detectable; combined faults must
    // not hide each other either.
    assert_eq!(detected, 120, "only {detected}/120 corruptions were flagged");
}

#[test]
fn corrupted_specs_are_reported_not_panicked() {
    let lib = TechnologyLibrary::proc_asic();
    let mut total_mutations = 0usize;
    for entry in corpus::all() {
        for seed in 0..30u64 {
            let mut inj = FaultInjector::new(seed);
            let (corrupted, damage) = inj.corrupt_spec(entry.source);
            total_mutations += 1;

            // Recovery parsing always yields a partial AST plus diagnostics.
            let (spec, diagnostics) = slif::speclang::parse_partial(&corrupted);
            // The strict entry points agree: either everything still parses
            // and resolves, or a SpecError aggregates the diagnostics.
            match slif::speclang::parse(&corrupted) {
                Ok(parsed) => match slif::speclang::resolve(parsed) {
                    Ok(rs) => {
                        // Corruption slipped past the language checks (for
                        // example a junk byte inside a comment): the rest of
                        // the pipeline must treat the result as any other
                        // valid spec.
                        let mut design = build_design(&rs, &lib);
                        let arch = allocate_proc_asic(&mut design);
                        let partition = all_software_partition(&design, arch);
                        let report = validate(&design, Some(&partition));
                        let estimated = estimate_survives(&design, &partition);
                        assert!(
                            !report.is_clean() || estimated.is_ok(),
                            "{}/{seed} ({damage}): clean validation but estimation failed: {:?}",
                            entry.name,
                            estimated.err()
                        );
                    }
                    Err(err) => {
                        assert!(
                            !err.diagnostics().is_empty(),
                            "{}/{seed} ({damage}): empty resolver error",
                            entry.name
                        );
                    }
                },
                Err(err) => {
                    assert!(
                        !err.diagnostics().is_empty(),
                        "{}/{seed} ({damage}): empty parser error",
                        entry.name
                    );
                    assert!(
                        !diagnostics.is_empty(),
                        "{}/{seed} ({damage}): strict parse failed but recovery saw no issue",
                        entry.name
                    );
                }
            }
            // Partial ASTs still resolve-or-report and never panic.
            let _ = slif::speclang::resolve(spec);
        }
    }
    assert_eq!(total_mutations, 120);
}

#[test]
fn dropped_weights_degrade_gracefully_with_defaults() {
    let entry = corpus::by_name("fuzzy").unwrap();
    let rs = entry.load().unwrap();
    let mut design = build_design(&rs, &TechnologyLibrary::proc_asic());
    let arch = allocate_proc_asic(&mut design);
    let partition = all_software_partition(&design, arch);

    // Strip the weights from a process — the one node every estimator
    // must visit.
    let process = design
        .graph()
        .node_ids()
        .find(|&n| design.graph().node(n).kind().is_process())
        .unwrap();
    design.graph_mut().node_mut(process).ict_mut().clear();
    design.graph_mut().node_mut(process).size_mut().clear();

    // Strict estimation reports the missing annotation as a hard error.
    let err = DesignReport::compute(&design, &partition).unwrap_err();
    assert!(
        matches!(err, CoreError::MissingWeight { .. }),
        "expected MissingWeight, got {err}"
    );

    // With defaults configured, the same design estimates to completion
    // and every substitution is surfaced as a warning.
    let config = EstimatorConfig::default()
        .with_default_ict(25)
        .with_default_size(80);
    let report = DesignReport::compute_with(&design, &partition, config).unwrap();
    assert!(!report.warnings.is_empty(), "no degradation warnings");
    let lists: Vec<&str> = report.warnings.iter().filter_map(|w| w.list()).collect();
    assert!(lists.contains(&"ict"), "no ict substitution in {lists:?}");
    assert!(lists.contains(&"size"), "no size substitution in {lists:?}");
    for w in &report.warnings {
        assert!(
            w.to_string().contains("assumed default"),
            "warning display lost the substitution: {w}"
        );
    }
}

/// A small generated design plus its complete starting partition.
fn small_design(seed: u64) -> (Design, Partition) {
    DesignGenerator::new(seed)
        .behaviors(5)
        .variables(3)
        .processors(2)
        .memories(1)
        .buses(2)
        .build()
}

/// A unique scratch path for checkpoint files.
fn scratch_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("slif-fi-{tag}-{}.ckpt", std::process::id()))
}

/// The four supervised algorithms with small, test-sized parameters.
fn algorithm(ix: usize, seed: u64) -> Algorithm {
    match ix % 4 {
        0 => Algorithm::RandomSearch {
            iterations: 40,
            seed,
        },
        1 => Algorithm::GreedyImprove { max_passes: 3 },
        2 => Algorithm::SimulatedAnnealing {
            config: AnnealingConfig {
                t0: 5.0,
                alpha: 0.7,
                moves_per_temp: 16,
                t_min: 0.5,
            },
            seed,
        },
        _ => Algorithm::GroupMigration { max_passes: 2 },
    }
}

/// Produces real checkpoint bytes by interrupting a supervised run.
fn sample_checkpoint_bytes(seed: u64, tag: &str) -> (Design, Vec<u8>) {
    let (design, start) = small_design(seed);
    let path = scratch_ckpt(tag);
    let mut sup = Supervisor::unlimited()
        .with_budget(5)
        .with_checkpoints(&path, 1);
    let r = explore(
        &design,
        start,
        &Objectives::new(),
        &Algorithm::RandomSearch {
            iterations: 50,
            seed,
        },
        &mut sup,
    )
    .unwrap();
    assert_eq!(r.stop, StopReason::BudgetExhausted);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    (design, bytes)
}

#[test]
fn kill_and_resume_reproduces_every_algorithm_exactly() {
    let (design, start) = small_design(33);
    let objectives = Objectives::new();
    for ix in 0..4 {
        let alg = algorithm(ix, 17);
        let full = explore(
            &design,
            start.clone(),
            &objectives,
            &alg,
            &mut Supervisor::unlimited(),
        )
        .unwrap();
        assert!(full.result.evaluations > 2, "algorithm {ix} too short");

        let budget = full.result.evaluations / 2;
        let path = scratch_ckpt(&format!("resume-{ix}"));
        let mut sup = Supervisor::unlimited()
            .with_budget(budget)
            .with_checkpoints(&path, 7);
        let partial = explore(&design, start.clone(), &objectives, &alg, &mut sup).unwrap();
        assert_eq!(partial.stop, StopReason::BudgetExhausted, "algorithm {ix}");
        assert!(partial.checkpoints_written > 0, "algorithm {ix}");

        let ckpt = ExplorationCheckpoint::load(&path, &design).unwrap();
        let resumed = resume(&design, &objectives, ckpt, &mut Supervisor::unlimited()).unwrap();
        assert_eq!(resumed.stop, StopReason::Completed, "algorithm {ix}");
        assert_eq!(
            resumed.result.partition, full.result.partition,
            "algorithm {ix} partition diverged after resume"
        );
        assert_eq!(
            resumed.result.cost.to_bits(),
            full.result.cost.to_bits(),
            "algorithm {ix} cost diverged after resume"
        );
        assert_eq!(
            resumed.result.evaluations, full.result.evaluations,
            "algorithm {ix} evaluation count diverged after resume"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn truncated_mid_write_checkpoint_is_rejected_never_half_loaded() {
    // The atomic-write regression: a file that only holds a prefix of a
    // checkpoint (what a crash mid-write would leave without the
    // temp+rename protocol) must be rejected with a typed error at every
    // possible cut point, and must never panic or yield a checkpoint.
    let (design, bytes) = sample_checkpoint_bytes(7, "truncate");
    let path = scratch_ckpt("truncate-partial");
    for cut in (0..bytes.len()).step_by(3).chain([bytes.len() - 1]) {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = ExplorationCheckpoint::load(&path, &design).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch
            ),
            "cut at {cut} gave {err:?}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_design_and_version_mismatches_are_typed() {
    let (_, bytes) = sample_checkpoint_bytes(9, "mismatch");
    // Same generator seed, one extra processor: a different design.
    let (other, _) = DesignGenerator::new(9)
        .behaviors(5)
        .variables(3)
        .processors(3)
        .memories(1)
        .buses(2)
        .build();
    let err = ExplorationCheckpoint::from_bytes(&bytes, &other).unwrap_err();
    assert!(
        matches!(err, CheckpointError::DesignMismatch { .. }),
        "got {err:?}"
    );

    let (design, mut bumped) = sample_checkpoint_bytes(10, "version");
    bumped[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(
        ExplorationCheckpoint::from_bytes(&bumped, &design),
        Err(CheckpointError::UnsupportedVersion { found: 2 })
    );
}

#[test]
fn incremental_self_audit_repairs_a_corrupted_cache_entry() {
    // The estimator's self-audit contract: an artificially corrupted
    // cache entry is detected on the audit cadence, repaired, and the
    // repair is recorded as a CacheDivergence warning.
    let (design, start) = small_design(21);
    let mut est = IncrementalEstimator::new(&design, start)
        .unwrap()
        .with_audit(1)
        .unwrap();
    // Warm the size cache, then poison every component entry so the
    // round-robin audit must hit a damaged slot on the next move.
    for pm in design.pm_refs() {
        let _warm = est.size(pm);
        est.debug_corrupt_size_cache(pm, 13);
    }
    let n = design.graph().node_ids().next().unwrap();
    let home = est.partition().node_component(n).unwrap();
    for p in design.processor_ids() {
        est.move_node(n, p.into()).unwrap();
    }
    est.move_node(n, home).unwrap();
    assert!(
        est.cache_divergences() > 0,
        "audit never caught the poisoned cache"
    );
    assert!(
        est.warnings().iter().any(|w| w.is_cache_divergence()),
        "no CacheDivergence warning recorded"
    );
    // After a full sweep the caches agree with from-scratch estimation.
    est.audit_now();
    assert_eq!(est.audit_now(), 0, "repair did not converge");
}

#[test]
fn corrupted_designs_submitted_as_jobs_resolve_typed_never_abort() {
    // The service-level half of the corruption contract: a corrupted
    // design submitted as an estimation job must resolve to exactly one
    // typed outcome that agrees with inline execution — the service
    // neither hides an error nor invents one, and never aborts — however
    // many of the jobs before it failed.
    let svc = JobService::start(ServiceConfig::new().with_workers(2));
    let limits = slif::runtime::RunLimits::default();
    let mut outcomes = Vec::new();
    for seed in 200..240u64 {
        let (mut design, mut partition) = small_design(seed);
        let count = 1 + (seed % 3) as usize;
        let _applied = FaultInjector::new(seed).corrupt(&mut design, &mut partition, count);
        let job = Job::Estimate {
            design,
            partition,
            config: EstimatorConfig::default(),
        };
        let handle = svc.submit(job.clone()).unwrap();
        outcomes.push((handle, job));
    }
    let mut failures = 0usize;
    for (handle, job) in outcomes {
        let inline = job.run_inline(&limits);
        match handle.wait() {
            JobOutcome::Completed { output } => {
                assert_eq!(Ok(output), inline, "service diverged from inline");
            }
            JobOutcome::Failed { error } => {
                failures += 1;
                assert_eq!(Err(error), inline, "service diverged from inline");
            }
            other => panic!("unexpected terminal state {other:?}"),
        }
    }
    assert!(failures > 0, "no corruption reached the estimator");
    svc.shutdown();
}

#[test]
fn service_survives_a_planned_runtime_fault_storm() {
    // Runtime fault plan driving a live service: every WorkerPanic slot
    // becomes an injected panic, every QueueFull slot lands in a burst
    // against a tiny queue. The service must absorb all of it — each
    // panic isolated and reported once as a typed failure, overload shed
    // with a typed rejection — and keep its books balanced.
    let svc = JobService::start(
        ServiceConfig::new()
            .with_workers(2)
            .with_queue_capacity(4)
            .with_watchdog_interval(std::time::Duration::from_millis(2)),
    );
    let plan = FaultInjector::new(0xFA17).plan_runtime_faults(120, 0.5);
    let mut handles = Vec::new();
    let mut shed = 0usize;
    for (i, slot) in plan.iter().enumerate() {
        let planted = format!("storm #{i}");
        let job = match slot {
            Some(RuntimeFaultKind::WorkerPanic) => Job::InjectedPanic {
                message: planted.clone(),
            },
            // QueueFull slots submit real work into the burst; the tiny
            // queue turns some of them into typed rejections.
            _ => {
                let (design, partition) = small_design(i as u64);
                Job::Estimate {
                    design,
                    partition,
                    config: EstimatorConfig::default(),
                }
            }
        };
        match svc.submit(job) {
            Ok(h) => {
                let is_panic = matches!(slot, Some(RuntimeFaultKind::WorkerPanic));
                handles.push((h, is_panic.then_some(planted)));
            }
            Err(slif::runtime::Rejected::QueueFull { .. }) => shed += 1,
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    let mut panic_jobs = 0u64;
    for (handle, planted) in &handles {
        match (handle.wait(), planted) {
            (JobOutcome::Failed { error }, Some(message)) => {
                panic_jobs += 1;
                let expected = slif::runtime::JobError::Panicked {
                    message: message.clone(),
                };
                assert_eq!(error, expected, "panic slot failed differently");
            }
            (JobOutcome::Completed { .. } | JobOutcome::Failed { .. }, None) => {}
            (other, _) => panic!("unexpected terminal state {other:?}"),
        }
    }
    let health = svc.health();
    assert_eq!(health.submitted as usize, handles.len());
    assert_eq!(health.shed as usize, shed);
    assert_eq!(
        (health.completed + health.failed) as usize,
        handles.len(),
        "every admitted job reached a terminal state"
    );
    assert!(panic_jobs > 0, "the storm never hit a worker");
    assert_eq!(health.worker_panics, panic_jobs, "each panic job ran exactly once");
    svc.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeded corruption of real checkpoint bytes — truncation, bit
    /// flips, zeroed spans, smashed headers — is always rejected with a
    /// typed error, never a panic, and an untouched blob still loads.
    #[test]
    fn any_checkpoint_corruption_is_rejected(seed in 0u64..10_000, kind_ix in 0usize..4) {
        let (design, original) = sample_checkpoint_bytes(seed % 17, "corrupt");
        let kind = ALL_CHECKPOINT_FAULT_KINDS[kind_ix];
        let mut bytes = original.clone();
        let _damage = FaultInjector::new(seed).corrupt_checkpoint(&mut bytes, kind);
        let decoded = ExplorationCheckpoint::from_bytes(&bytes, &design);
        if bytes == original {
            // A zeroed span can land on already-zero bytes; the blob is
            // intact and must still decode.
            prop_assert!(decoded.is_ok());
        } else {
            prop_assert!(decoded.is_err(), "{kind}: corrupted checkpoint decoded");
        }
    }

    /// Interrupting any algorithm at an arbitrary evaluation budget and
    /// resuming from the stop checkpoint reproduces the uninterrupted
    /// run's best partition, cost bits, and evaluation count exactly.
    #[test]
    fn kill_and_resume_is_exact_at_any_budget(
        seed in 0u64..1_000,
        alg_ix in 0usize..4,
        budget_pick in 1u64..10_000,
    ) {
        let (design, start) = small_design(seed % 23);
        let objectives = Objectives::new();
        let alg = algorithm(alg_ix, seed);
        let full = explore(
            &design,
            start.clone(),
            &objectives,
            &alg,
            &mut Supervisor::unlimited(),
        ).unwrap();
        if full.result.evaluations <= 1 {
            return Ok(()); // nothing to interrupt
        }
        let budget = 1 + budget_pick % (full.result.evaluations - 1).max(1);

        let path = scratch_ckpt(&format!("prop-resume-{seed}-{alg_ix}"));
        let mut sup = Supervisor::unlimited()
            .with_budget(budget)
            .with_checkpoints(&path, 5);
        let partial = explore(&design, start, &objectives, &alg, &mut sup).unwrap();
        prop_assert_eq!(partial.stop, StopReason::BudgetExhausted);
        let ckpt = ExplorationCheckpoint::load(&path, &design).unwrap();
        std::fs::remove_file(&path).unwrap();
        let resumed = resume(&design, &objectives, ckpt, &mut Supervisor::unlimited()).unwrap();
        prop_assert_eq!(resumed.stop, StopReason::Completed);
        prop_assert_eq!(&resumed.result.partition, &full.result.partition);
        prop_assert_eq!(resumed.result.cost.to_bits(), full.result.cost.to_bits());
        prop_assert_eq!(resumed.result.evaluations, full.result.evaluations);
    }

    /// Arbitrary seed, arbitrary damage intensity: validation and
    /// estimation stay panic-free and agree (clean implies estimable).
    #[test]
    fn any_corruption_is_survivable(seed in 0u64..1_000_000, count in 1usize..8) {
        let (mut design, mut partition) = DesignGenerator::new(seed).build();
        let applied = FaultInjector::new(seed ^ 0x5eed).corrupt(&mut design, &mut partition, count);
        let report = validate(&design, Some(&partition));
        let estimated = estimate_survives(&design, &partition);
        if report.is_clean() {
            prop_assert!(
                estimated.is_ok(),
                "seed {}: clean validation, estimation error {:?}, faults {:?}",
                seed,
                estimated.err(),
                applied
            );
        }
    }

    /// Spec-text corruption: the recovering parser always returns, and the
    /// strict parser's error always carries diagnostics.
    #[test]
    fn any_spec_corruption_is_survivable(seed in 0u64..1_000_000) {
        let entry = corpus::all()[(seed % 4) as usize];
        let (corrupted, _damage) = FaultInjector::new(seed).corrupt_spec(entry.source);
        let (spec, _diags) = slif::speclang::parse_partial(&corrupted);
        let _ = slif::speclang::resolve(spec);
        if let Err(err) = slif::speclang::parse(&corrupted) {
            prop_assert!(!err.diagnostics().is_empty());
        }
    }

    /// The single-fault acceptance property: one injected fault of any
    /// class is always detected by validation.
    #[test]
    fn every_single_fault_is_detected(seed in 0u64..10_000, kind_ix in 0usize..11) {
        let (mut design, mut partition) = DesignGenerator::new(seed)
            .behaviors(5)
            .variables(3)
            .processors(2)
            .memories(1)
            .buses(2)
            .build();
        let kind = slif::core::faults::ALL_FAULT_KINDS[kind_ix];
        let mut inj = FaultInjector::new(seed);
        if inj.apply(kind, &mut design, &mut partition).is_some() {
            let report = validate(&design, Some(&partition));
            prop_assert!(!report.is_clean(), "seed {} {} undetected", seed, kind);
        }
    }
}

#[test]
fn analyzer_is_total_and_deterministic_on_corrupted_designs() {
    use slif::analyze::{analyze, AnalysisConfig};
    // Lint analysis has no error path at all: any design, however
    // damaged, produces a report — and the same design produces the same
    // report, byte for byte.
    for seed in 0..60u64 {
        let (mut design, mut partition) = DesignGenerator::new(seed)
            .behaviors(4 + (seed % 6) as usize)
            .variables(2 + (seed % 4) as usize)
            .processors(1 + (seed % 3) as usize)
            .buses(1 + (seed % 2) as usize)
            .build();
        let mut inj = FaultInjector::new(seed);
        let _ = inj.corrupt(&mut design, &mut partition, 1 + (seed % 3) as usize);
        let _ = inj.corrupt_analyzable(&mut design, &mut partition, 1 + (seed % 2) as usize);
        let config = AnalysisConfig::new();
        let a = analyze(&design, Some(&partition), &config);
        let b = analyze(&design, Some(&partition), &config);
        assert_eq!(a, b, "seed {seed}: report not deterministic");
        assert_eq!(
            a.to_string(),
            b.to_string(),
            "seed {seed}: rendering not deterministic"
        );
        let c = analyze(&design, None, &config);
        assert_eq!(c, analyze(&design, None, &config), "seed {seed}: no-partition run");
    }
}

#[test]
fn orphaned_variables_are_reported_as_dead_code() {
    use slif::analyze::{analyze, AnalysisConfig, LintId};
    use slif::core::faults::AnalyzableFaultKind;
    let mut hits = 0usize;
    for seed in 0..40u64 {
        let (mut design, mut partition) = DesignGenerator::new(seed)
            .behaviors(6)
            .variables(4)
            .processors(2)
            .buses(2)
            .build();
        let Some(fault) = FaultInjector::new(seed).apply_analyzable(
            AnalyzableFaultKind::OrphanVariable,
            &mut design,
            &mut partition,
        ) else {
            continue;
        };
        let report = analyze(&design, Some(&partition), &AnalysisConfig::new());
        assert!(
            report
                .of(LintId::DeadCode)
                .any(|f| f.message.contains(&format!("variable {} (", fault.target))),
            "seed {seed}: {fault} not reported\n{report}"
        );
        hits += 1;
    }
    assert!(hits >= 30, "only {hits}/40 seeds had an orphan target");
}

#[test]
fn dangling_bus_mappings_are_reported_by_the_bitwidth_lint() {
    use slif::analyze::{analyze, AnalysisConfig, LintId};
    use slif::core::faults::AnalyzableFaultKind;
    for seed in 0..40u64 {
        let (mut design, mut partition) = DesignGenerator::new(seed)
            .behaviors(5)
            .variables(3)
            .processors(2)
            .buses(2)
            .build();
        let fault = FaultInjector::new(seed)
            .apply_analyzable(
                AnalyzableFaultKind::DanglingBusMapping,
                &mut design,
                &mut partition,
            )
            .expect("generator designs always carry channels");
        let report = analyze(&design, Some(&partition), &AnalysisConfig::new());
        assert!(
            report.of(LintId::BitwidthMismatch).any(|f| {
                f.message.contains("does not exist")
                    && f.message.contains(&format!("channel {} ", fault.target))
            }),
            "seed {seed}: {fault} not reported\n{report}"
        );
    }
}

#[test]
fn injected_concurrency_tag_conflicts_race() {
    use slif::analyze::{analyze, AnalysisConfig, LintId};
    use slif::core::faults::AnalyzableFaultKind;
    use slif::core::{AccessKind, NodeKind};

    // Two processes reading one variable: clean. The injected conflict
    // turns both accesses into writes claiming the same concurrency
    // group, which is exactly what the race lint exists to catch.
    let mut d = Design::new("tag-conflict");
    let m1 = d.graph_mut().add_node("Main1", NodeKind::process());
    let m2 = d.graph_mut().add_node("Main2", NodeKind::process());
    let v = d.graph_mut().add_node("v", NodeKind::scalar(8));
    d.graph_mut()
        .add_channel(m1, v.into(), AccessKind::Read)
        .expect("fixture channel");
    d.graph_mut()
        .add_channel(m2, v.into(), AccessKind::Read)
        .expect("fixture channel");
    let mut p = Partition::new(&d);

    let config = AnalysisConfig::new();
    let baseline = analyze(&d, None, &config);
    assert_eq!(
        baseline.of(LintId::SharedVariableRace).count(),
        0,
        "{baseline}"
    );

    FaultInjector::new(5)
        .apply_analyzable(AnalyzableFaultKind::ConcurrencyTagConflict, &mut d, &mut p)
        .expect("fixture has a doubly-accessed variable");
    let report = analyze(&d, None, &config);
    assert_eq!(report.of(LintId::SharedVariableRace).count(), 1, "{report}");
}

#[test]
fn planted_dataflow_defects_fire_their_lints() {
    use slif::analyze::{analyze_compiled_with_flow, AnalysisConfig, LintId};
    use slif::core::faults::ALL_DATAFLOW_DEFECT_KINDS;
    use slif::core::CompiledDesign;
    use slif::speclang::FlowProgram;

    let lib = TechnologyLibrary::proc_asic();
    let config = AnalysisConfig::new();
    let flow_lints = [
        LintId::ValueRangeOverflow,
        LintId::UninitializedRead,
        LintId::DeadStore,
        LintId::ConstantCondition,
    ];
    for entry in corpus::all() {
        for seed in 0..5u64 {
            let mut inj = FaultInjector::new(seed);
            let (mutated, names) =
                inj.plant_dataflow_defects(entry.source, &ALL_DATAFLOW_DEFECT_KINDS);
            assert_eq!(names.len(), ALL_DATAFLOW_DEFECT_KINDS.len());

            // The defects are semantic: the poisoned spec still parses,
            // resolves, and builds like any healthy one.
            let parsed = slif::speclang::parse(&mutated)
                .unwrap_or_else(|e| panic!("{}/{seed}: planted spec must parse: {e}", entry.name));
            let flow = FlowProgram::from_spec(&parsed);
            let rs = slif::speclang::resolve(parsed)
                .unwrap_or_else(|e| panic!("{}/{seed}: planted spec must resolve: {e}", entry.name));
            let mut design = build_design(&rs, &lib);
            let arch = allocate_proc_asic(&mut design);
            let partition = all_software_partition(&design, arch);
            let cd = CompiledDesign::compile(&design);
            let report = analyze_compiled_with_flow(&cd, Some(&partition), &config, &flow, None);

            // The corpus itself is lint-silent (analyze_props holds that
            // line), so each planted kind accounts for exactly one
            // finding of exactly its lint.
            for (kind, lint) in ALL_DATAFLOW_DEFECT_KINDS.iter().zip(flow_lints) {
                assert_eq!(
                    report.of(lint).count(),
                    1,
                    "{}/{seed}: planted {kind} must fire {lint} exactly once\n{report}",
                    entry.name
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Durable-store fault suites: each `StoreFaultKind` must land on its
// documented recovery outcome — never a panic, never a replayed or
// served corrupt record.
// ---------------------------------------------------------------------

/// Builds a journal fixture with a known record mix and returns its
/// clean on-disk bytes: 3 accepted, 2 completed, 1 cancelled.
fn journal_fixture(path: &std::path::Path) -> Vec<u8> {
    use slif::store::{JobRecord, Journal};
    let _ = std::fs::remove_file(path);
    let (mut journal, report) = Journal::open(path).expect("fresh journal");
    assert_eq!(report.records_replayed, 0);
    for id in 1u64..=3 {
        journal
            .append(&JobRecord::Accepted {
                id,
                payload: vec![0x41; 40 + id as usize],
            })
            .expect("append accepted");
    }
    for id in 1u64..=2 {
        journal
            .append(&JobRecord::Completed {
                id,
                status: 200,
                body: vec![0x42; 64],
            })
            .expect("append completed");
    }
    journal
        .append(&JobRecord::Cancelled { id: 3 })
        .expect("append cancelled");
    drop(journal);
    std::fs::read(path).expect("read fixture bytes")
}

#[test]
fn every_journal_store_fault_recovers_to_its_documented_outcome() {
    use slif::core::faults::{StoreFaultKind, ALL_STORE_FAULT_KINDS};
    use slif::store::{JobRecord, Journal};

    let dir = std::env::temp_dir().join(format!("slif-fi-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("journal.wal");
    let clean = journal_fixture(&path);
    const RECORDS: u64 = 6;

    for &kind in &ALL_STORE_FAULT_KINDS {
        for seed in 0..40u64 {
            let mut bytes = clean.clone();
            let desc = FaultInjector::new(seed ^ 0x51F0)
                .corrupt_store_file(&mut bytes, kind);
            std::fs::write(&path, &bytes).expect("write corrupted image");
            let sidecar = dir.join("journal.wal.corrupt");
            let _ = std::fs::remove_file(&sidecar);

            // Recovery is total: typed report, no panic.
            let (mut journal, report) =
                Journal::open(&path).unwrap_or_else(|e| panic!("{kind}/{seed} ({desc}): {e}"));
            let ctx = format!("{kind}/{seed} ({desc}): {report:?}");

            match kind {
                StoreFaultKind::StaleVersionHeader => {
                    // A header this build cannot read poisons the whole
                    // file: quarantined wholesale, zero records trusted.
                    assert!(report.header_quarantined, "{ctx}");
                    assert_eq!(report.records_replayed, 0, "{ctx}");
                    assert_eq!(report.quarantined_bytes, clean.len() as u64, "{ctx}");
                    assert!(sidecar.exists(), "{ctx}");
                }
                StoreFaultKind::TornFinalRecord => {
                    // A tear of <=16 bytes can only damage the final
                    // (21-byte) record: everything acknowledged before
                    // it replays, the tail is quarantined.
                    assert_eq!(report.records_replayed, RECORDS - 1, "{ctx}");
                    assert!(report.truncated_at.is_some(), "{ctx}");
                    assert!(report.quarantined_bytes > 0, "{ctx}");
                    assert!(sidecar.exists(), "{ctx}");
                }
                StoreFaultKind::MidFileBitFlip => {
                    // The CRC catches the flip at some record: a clean
                    // prefix replays, nothing at or past the damage does.
                    assert!(report.truncated_at.is_some(), "{ctx}");
                    assert!(report.records_replayed < RECORDS, "{ctx}");
                    assert!(report.quarantined_bytes > 0, "{ctx}");
                }
                StoreFaultKind::TruncatedSegment => {
                    // An arbitrary cut never panics and never invents
                    // records; a cut inside the header quarantines the
                    // file, a cut on a record boundary is a clean short
                    // journal, anything else truncates at the damage.
                    assert!(report.records_replayed < RECORDS, "{ctx}");
                    if !report.header_quarantined && report.truncated_at.is_none() {
                        assert_eq!(report.quarantined_bytes, 0, "{ctx}");
                    }
                }
                _ => unreachable!("unknown store fault kind"),
            }
            // Replayed terminal records are intact, never half-decoded.
            for (id, status, body) in &report.done {
                assert!((1..=2).contains(id), "{ctx}");
                assert_eq!(*status, 200, "{ctx}");
                assert_eq!(body.len(), 64, "{ctx}");
            }

            // Whatever was lost, the recovered journal must still be a
            // working journal: append, reopen, replay.
            journal
                .append(&JobRecord::Accepted {
                    id: 99,
                    payload: vec![0x43; 8],
                })
                .expect("post-recovery append");
            drop(journal);
            let (_, after) = Journal::open(&path).expect("post-recovery reopen");
            assert!(
                after.pending.iter().any(|p| p.id == 99),
                "{ctx}: post-recovery record lost"
            );
            // Restore the clean fixture for the next iteration.
            std::fs::write(&path, &clean).expect("restore fixture");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_cache_store_fault_is_a_quarantined_miss_never_a_corrupt_hit() {
    use slif::core::faults::ALL_STORE_FAULT_KINDS;
    use slif::store::DesignCache;

    let (design, _) = DesignGenerator::new(7)
        .behaviors(6)
        .variables(4)
        .processors(2)
        .memories(1)
        .buses(1)
        .build();
    let source = b"spec bytes keyed by content, not by name";

    for &kind in &ALL_STORE_FAULT_KINDS {
        for seed in 0..25u64 {
            let dir = std::env::temp_dir().join(format!(
                "slif-fi-cache-{kind}-{seed}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cache = DesignCache::open(&dir).expect("open cache");
            cache.put(source, &design).expect("seed the cache");
            assert_eq!(cache.get(source).as_ref(), Some(&design), "clean hit");

            // Corrupt one of the two files backing the entry — the ref
            // on even seeds, the object on odd ones.
            let sub = if seed % 2 == 0 { "refs" } else { "objects" };
            let file = std::fs::read_dir(dir.join(sub))
                .expect("cache subdir")
                .filter_map(Result::ok)
                .map(|e| e.path())
                .find(|p| p.extension().is_none())
                .expect("one cache file");
            let mut bytes = std::fs::read(&file).expect("read cache file");
            let desc = FaultInjector::new(seed ^ 0xCACE).corrupt_store_file(&mut bytes, kind);
            std::fs::write(&file, &bytes).expect("write corrupted file");

            // Never a corrupt design, never a panic: a verified miss.
            let got = cache.get(source);
            let stats = cache.stats();
            let ctx = format!("{kind}/{seed} on {sub} ({desc}): {stats:?}");
            match got {
                None => assert!(stats.quarantined > 0 || stats.misses > 0, "{ctx}"),
                // A truncation that keeps the whole file is a no-op;
                // any served hit must still verify bit-identical.
                Some(back) => assert_eq!(back, design, "{ctx}"),
            }

            // The miss is self-healing: re-put, then a verified hit.
            cache.put(source, &design).expect("re-put after quarantine");
            assert_eq!(
                cache.get(source).as_ref(),
                Some(&design),
                "{ctx}: cache did not heal"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
