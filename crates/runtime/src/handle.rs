//! Completion handles: how a submitter observes a job's terminal state.
//!
//! Admission returns a [`JobHandle`]; the service later resolves it with
//! exactly one [`JobOutcome`]. Handles are cheap to clone and safe to
//! wait on from any thread.

use crate::job::{JobError, JobOutput};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// An observer invoked exactly once, with the terminal outcome, *before*
/// any waiter can observe it. This is the durability hook: a journal can
/// fsync the outcome before the submitter is able to acknowledge it.
pub(crate) type TerminalHook = Box<dyn FnOnce(&JobOutcome) + Send>;

/// The terminal state of an admitted job. Every admitted job reaches
/// exactly one of these; a rejected job never gets a handle at all.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobOutcome {
    /// The job produced a result.
    Completed {
        /// The result.
        output: JobOutput,
    },
    /// The job failed with a typed error; a caught panic is
    /// [`JobError::Panicked`].
    Failed {
        /// The error.
        error: JobError,
    },
    /// The job's deadline expired before a worker could run it.
    TimedOut,
    /// The service shut down without draining and discarded the job.
    Cancelled,
}

impl JobOutcome {
    /// Whether this outcome carries a successful result.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed { .. })
    }
}

/// The shared slot a worker fills and a submitter waits on.
#[derive(Default)]
pub(crate) struct HandleState {
    slot: Mutex<Option<JobOutcome>>,
    cv: Condvar,
    hook: Mutex<Option<TerminalHook>>,
}

impl std::fmt::Debug for HandleState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandleState")
            .field("slot", &crate::lock(&self.slot))
            .field("hooked", &crate::lock(&self.hook).is_some())
            .finish()
    }
}

impl HandleState {
    /// Attaches the terminal observer. Called at most once, by the
    /// submit path, before the task can reach any resolve site.
    pub(crate) fn set_hook(&self, hook: TerminalHook) {
        *crate::lock(&self.hook) = Some(hook);
    }

    /// Resolves the handle. Must be called exactly once; a second call is
    /// a service bug and is ignored (first outcome wins), so a submitter
    /// can never observe two terminal states.
    ///
    /// The terminal hook (if any) runs first — a waiter can only observe
    /// an outcome the hook has already seen (and, for a durability hook,
    /// already persisted). A panicking hook is absorbed: resolution must
    /// still happen on every path.
    pub(crate) fn resolve(&self, outcome: JobOutcome) {
        let hook = crate::lock(&self.hook).take();
        if let Some(hook) = hook {
            drop(catch_unwind(AssertUnwindSafe(|| hook(&outcome))));
        }
        let mut slot = crate::lock(&self.slot);
        if slot.is_none() {
            *slot = Some(outcome);
            self.cv.notify_all();
        } else {
            debug_assert!(false, "job resolved twice");
        }
    }
}

/// A cloneable handle to one admitted job.
#[derive(Debug, Clone)]
pub struct JobHandle {
    id: u64,
    state: Arc<HandleState>,
}

impl JobHandle {
    pub(crate) fn new(id: u64) -> (Self, Arc<HandleState>) {
        let state = Arc::new(HandleState::default());
        (
            Self {
                id,
                state: Arc::clone(&state),
            },
            state,
        )
    }

    /// The service-assigned job id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The outcome, if the job has already reached a terminal state.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        crate::lock(&self.state.slot).clone()
    }

    /// Blocks until the job reaches its terminal state.
    pub fn wait(&self) -> JobOutcome {
        let mut slot = crate::lock(&self.state.slot);
        loop {
            if let Some(outcome) = slot.clone() {
                return outcome;
            }
            slot = self
                .state
                .cv
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Blocks up to `timeout` for the terminal state.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slot = crate::lock(&self.state.slot);
        loop {
            if let Some(outcome) = slot.clone() {
                return Some(outcome);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .state
                .cv
                .wait_timeout(slot, deadline - now)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            slot = guard;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_wakes_waiters_and_is_idempotent() {
        let (handle, state) = JobHandle::new(7);
        assert_eq!(handle.id(), 7);
        assert!(handle.try_outcome().is_none());
        assert!(handle.wait_timeout(Duration::from_millis(5)).is_none());
        state.resolve(JobOutcome::TimedOut);
        assert_eq!(handle.wait(), JobOutcome::TimedOut);
        assert_eq!(handle.try_outcome(), Some(JobOutcome::TimedOut));
    }

    #[test]
    fn hook_fires_once_before_any_waiter_observes_the_outcome() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let (handle, state) = JobHandle::new(1);
        let fired = Arc::new(AtomicU32::new(0));
        // While the hook runs, the slot must still be empty: the hook
        // sees the outcome strictly before any waiter can.
        let probe = handle.clone();
        let fired_in_hook = Arc::clone(&fired);
        state.set_hook(Box::new(move |outcome| {
            assert!(matches!(outcome, JobOutcome::TimedOut));
            assert!(probe.try_outcome().is_none(), "waiter could see outcome before hook");
            fired_in_hook.fetch_add(1, Ordering::SeqCst);
        }));
        state.resolve(JobOutcome::TimedOut);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "hook fires exactly once");
        assert_eq!(handle.wait(), JobOutcome::TimedOut);
    }

    #[test]
    fn panicking_hook_does_not_lose_the_outcome() {
        let (handle, state) = JobHandle::new(2);
        state.set_hook(Box::new(|_| panic!("journal exploded")));
        state.resolve(JobOutcome::Cancelled);
        assert_eq!(handle.wait(), JobOutcome::Cancelled);
    }

    #[test]
    fn wait_blocks_until_a_worker_resolves() {
        let (handle, state) = JobHandle::new(0);
        let waiter = handle.clone();
        let t = std::thread::spawn(move || waiter.wait());
        std::thread::sleep(Duration::from_millis(10));
        state.resolve(JobOutcome::Cancelled);
        assert_eq!(t.join().ok(), Some(JobOutcome::Cancelled));
    }
}
