//! # slif-runtime — a fault-isolated concurrent job service for SLIF
//!
//! The paper's promise is *fast* estimation — fast enough that design
//! evaluations become cheap, interactive operations ("a designer can
//! explore many more alternatives"). This crate turns the pipeline the
//! other crates build (parse → compile → estimate → explore) into a
//! *service*: a pool of worker threads behind a bounded queue that keeps
//! serving evaluations while individual jobs misbehave.
//!
//! The failure model is explicit. Every job reaches **exactly one**
//! terminal state ([`JobOutcome`]), and every refusal is typed
//! ([`Rejected`]):
//!
//! * hostile inputs are stopped at admission (size guards) or inside the
//!   lower layers ([`ParseLimits`](slif_speclang::ParseLimits),
//!   [`GraphLimits`](slif_core::GraphLimits)) with typed errors,
//! * a worker panic is caught and reported once as
//!   [`JobError::Panicked`] — never a process abort, never a retry (jobs
//!   are pure functions of their inputs, so a panic would recur); a
//!   worker that absorbs too many panics is quarantined and respawned by
//!   the watchdog,
//! * deadlines are armed at admission and pushed into exploration
//!   supervisors, so overdue work stops with best-so-far results,
//! * a full queue sheds load with [`Rejected::QueueFull`] instead of
//!   blocking or growing without bound,
//! * shutdown drains gracefully ([`JobService::shutdown`]) or cancels
//!   crisply ([`JobService::shutdown_now`]).
//!
//! The service adds policy, never semantics: every job — an estimate
//! included — runs with exactly the inputs and configuration it was
//! submitted with, so its outcome is identical to running it inline with
//! [`Job::run_inline`] whatever other traffic the service is carrying.
//! The soak suite enforces this bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use slif_runtime::{Job, JobOutcome, JobService, ServiceConfig};
//!
//! let svc = JobService::start(ServiceConfig::new().with_workers(2));
//! let handle = svc
//!     .submit(Job::ParseSpec {
//!         source: "system T;\nvar x : int<8>;\nprocess Main { x = x + 1; }\n".into(),
//!     })
//!     .map_err(|e| e.to_string())?;
//! match handle.wait() {
//!     JobOutcome::Completed { output, .. } => drop(output),
//!     other => panic!("unexpected terminal state: {other:?}"),
//! }
//! println!("{}", svc.health());
//! svc.shutdown();
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Serving code must degrade, not die: no `expect` on library paths
// (promoted to an error by the verify gate's `-D warnings`).
#![warn(clippy::expect_used)]

mod handle;
mod health;
mod job;
mod queue;
mod service;

pub use handle::{JobHandle, JobOutcome};
pub use health::{HealthSnapshot, LatencyHistogram, LATENCY_BUCKETS};
pub use job::{Job, JobError, JobOutput, RunLimits};
pub use queue::Rejected;
pub use service::{JobService, ServiceConfig};

use std::sync::{Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning: a worker that panicked
/// while holding a lock has already been isolated and quarantined by the
/// service, so the data behind the lock is still the source of truth for
/// everyone else. (Job execution itself never runs under these locks.)
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<JobService>();
        assert_send_sync::<JobHandle>();
        assert_send_sync::<JobOutcome>();
        assert_send_sync::<Rejected>();
        assert_send_sync::<HealthSnapshot>();
    }

    #[test]
    fn lock_recovers_from_poisoning() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let poisoner = std::sync::Arc::clone(&m);
        drop(
            std::thread::Builder::new()
                .spawn(move || {
                    let _guard = poisoner.lock();
                    panic!("poison the lock");
                })
                .map(std::thread::JoinHandle::join),
        );
        assert_eq!(*lock(&m), 7);
    }
}
