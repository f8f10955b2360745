//! The bounded admission queue and its typed rejections.
//!
//! Backpressure is explicit: a full queue rejects new work with
//! [`Rejected::QueueFull`] instead of blocking the submitter or growing
//! without bound.
//!
//! Dequeueing is **weighted fair-share** across tenants: every pop
//! charges the task's tenant `VTIME_SCALE / weight` virtual time, and
//! the next pop serves the queued task whose tenant has the least
//! virtual time so far (ties go to the oldest task). A tenant that
//! floods the queue therefore cannot starve a light tenant: the light
//! tenant's next job jumps ahead of the flood. Untagged tasks share one
//! anonymous tenant of weight 1.

use crate::handle::HandleState;
use crate::job::Job;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Virtual-time charged to a weight-1 tenant per dequeued job. Higher
/// weights are charged proportionally less, so they are served
/// proportionally more often under contention.
const VTIME_SCALE: u64 = 1 << 20;

/// The map key for tasks submitted without a tenant tag.
const ANON_TENANT: u64 = u64::MAX;

/// Why the service refused to admit a job. Returned synchronously by
/// `submit`; a rejected job never gets a handle.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rejected {
    /// The queue is at capacity; retry later (backpressure).
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The job's input exceeds an admission size guard.
    TooLarge {
        /// Which measure tripped (`"spec bytes"`, `"node"`, `"channel"`).
        what: &'static str,
        /// The configured cap.
        limit: usize,
        /// The measured size.
        actual: usize,
    },
    /// The service is shutting down and admits nothing.
    ShuttingDown,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity}); retry later")
            }
            Rejected::TooLarge {
                what,
                limit,
                actual,
            } => write!(f, "{what} count {actual} exceeds the admission limit of {limit}"),
            Rejected::ShuttingDown => f.write_str("service is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// One queued unit of work: a job plus its bookkeeping.
#[derive(Debug)]
pub(crate) struct Task {
    /// Service-assigned id.
    pub id: u64,
    /// The work itself.
    pub job: Job,
    /// Absolute deadline; expired tasks resolve as timed out.
    pub deadline: Option<Instant>,
    /// The fair-share tenant this task is billed to (`None` = anonymous).
    pub tenant: Option<u32>,
    /// The tenant's fair-share weight (floor 1); higher weights receive
    /// proportionally more service under contention.
    pub weight: u32,
    /// The submitter's completion slot.
    pub handle: Arc<HandleState>,
}

impl Task {
    fn tenant_key(&self) -> u64 {
        self.tenant.map_or(ANON_TENANT, u64::from)
    }
}

#[derive(Debug)]
struct QueueState {
    items: VecDeque<Task>,
    closed: bool,
    /// Per-tenant virtual service time for weighted fair-share popping.
    vtime: HashMap<u64, u64>,
    /// The system virtual clock: the vtime of the most recently served
    /// tenant at the moment it was served. Advanced on every pop, never
    /// rewound — in particular it survives the queue draining empty, so
    /// a tenant joining at a quiet moment cannot seed at zero and then
    /// monopolize the queue until its clock catches up with everyone
    /// else's accumulated history.
    global_vtime: u64,
}

impl QueueState {
    /// Seeds (or refreshes) the tenant's virtual clock on admission: a
    /// tenant joining — or rejoining after idling — starts no earlier
    /// than the system clock, so it neither inherits a stale advantage
    /// (its own old clock is kept if higher) nor waits behind everyone's
    /// history (it is lifted to "now", not to the busiest tenant's
    /// total).
    fn note_tenant(&mut self, key: u64) {
        let floor = self.global_vtime;
        let entry = self.vtime.entry(key).or_insert(floor);
        *entry = (*entry).max(floor);
    }
}

/// A bounded MPMC task queue with weighted fair-share popping.
#[derive(Debug)]
pub(crate) struct TaskQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
}

impl TaskQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                vtime: HashMap::new(),
                global_vtime: 0,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits a new task if there is room. On a full or closed queue the
    /// task is handed back so the caller can resolve or reject it.
    // A rejected task must travel back whole (it owns the job and the
    // caller's handle); it was moved in by value, so the large Err is a
    // return of ownership, not an extra copy.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_push(&self, task: Task) -> Result<(), (Task, Rejected)> {
        let mut st = crate::lock(&self.state);
        if st.closed {
            return Err((task, Rejected::ShuttingDown));
        }
        if st.items.len() >= self.capacity {
            return Err((
                task,
                Rejected::QueueFull {
                    capacity: self.capacity,
                },
            ));
        }
        st.note_tenant(task.tenant_key());
        st.items.push_back(task);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next task — the one whose tenant has received the
    /// least weighted service (ties go to the oldest). Returns `None` once
    /// the queue is closed *and* drained, which is each worker's signal
    /// to exit.
    pub(crate) fn pop(&self) -> Option<Task> {
        let mut st = crate::lock(&self.state);
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (i, t) in st.items.iter().enumerate() {
                let v = st.vtime.get(&t.tenant_key()).copied().unwrap_or(0);
                // Strictly-smaller keeps the earliest index on ties.
                if best.is_none_or(|(_, bv)| v < bv) {
                    best = Some((i, v));
                }
            }
            if let Some((i, v)) = best {
                let task = st.items.remove(i)?;
                let charge = VTIME_SCALE / u64::from(task.weight.max(1));
                // The served tenant had the least vtime among queued
                // tasks, so `v` is the system virtual time "now".
                st.global_vtime = st.global_vtime.max(v);
                st.vtime.insert(task.tenant_key(), v.saturating_add(charge));
                return Some(task);
            }
            if st.closed {
                return None;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the queue. With `discard`, drains and returns every queued
    /// task (for cancellation); without, workers keep draining the
    /// remainder before exiting.
    pub(crate) fn close(&self, discard: bool) -> Vec<Task> {
        let mut st = crate::lock(&self.state);
        st.closed = true;
        let leftovers = if discard {
            st.items.drain(..).collect()
        } else {
            Vec::new()
        };
        self.cv.notify_all();
        leftovers
    }

    /// Empties the queue unconditionally, returning whatever is left.
    ///
    /// The drain-ordering backstop: after a graceful close has joined
    /// every worker, any task still queued (admitted in the race window
    /// while the last workers were retiring) would otherwise be stranded
    /// without a terminal state. The service sweeps them here and
    /// resolves them cancelled.
    pub(crate) fn drain_remaining(&self) -> Vec<Task> {
        crate::lock(&self.state).items.drain(..).collect()
    }

    /// Current queue depth (admitted, not yet running).
    pub(crate) fn depth(&self) -> usize {
        crate::lock(&self.state).items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::JobHandle;

    fn task(id: u64) -> Task {
        tenant_task(id, None, 1)
    }

    fn tenant_task(id: u64, tenant: Option<u32>, weight: u32) -> Task {
        let (_, handle) = JobHandle::new(id);
        Task {
            id,
            job: Job::ParseSpec {
                source: String::new(),
            },
            deadline: None,
            tenant,
            weight,
            handle,
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let q = TaskQueue::new(1);
        q.try_push(task(0)).unwrap();
        let (_, why) = q.try_push(task(1)).unwrap_err();
        assert_eq!(why, Rejected::QueueFull { capacity: 1 });
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn close_drained_queue_ends_workers() {
        let q = TaskQueue::new(8);
        q.close(false);
        assert!(q.pop().is_none());
        // New work is refused after close.
        let (_, why) = q.try_push(task(0)).unwrap_err();
        assert_eq!(why, Rejected::ShuttingDown);
    }

    #[test]
    fn close_with_discard_returns_leftovers() {
        let q = TaskQueue::new(8);
        q.try_push(task(0)).unwrap();
        q.try_push(task(1)).unwrap();
        let leftovers = q.close(true);
        assert_eq!(leftovers.len(), 2);
        assert!(q.pop().is_none());
    }

    /// With tenants A (weight 3) and B (weight 1) both saturating the
    /// queue, pops interleave ~3:1 in A's favour — and B is never starved.
    #[test]
    fn pop_is_weighted_fair_share() {
        let q = TaskQueue::new(16);
        for i in 0..6 {
            q.try_push(tenant_task(i, Some(0), 3)).unwrap();
        }
        for i in 6..12 {
            q.try_push(tenant_task(i, Some(1), 1)).unwrap();
        }
        let order: Vec<u32> = (0..12)
            .map(|_| q.pop().and_then(|t| t.tenant).unwrap())
            .collect();
        // Deterministic deficit schedule: A pops charge 1/3 as much as B
        // pops, so A gets three slots for each of B's.
        let a_first_8 = order.iter().take(8).filter(|&&t| t == 0).count();
        assert_eq!(a_first_8, 6, "heavy tenant fills early slots 3:1: {order:?}");
        assert_eq!(order[0], 0, "ties go to the oldest task");
        assert!(order.ends_with(&[1, 1, 1, 1]), "light tenant drains last: {order:?}");
        // Within one tenant, order stays FIFO.
        let q2 = TaskQueue::new(4);
        q2.try_push(tenant_task(0, Some(7), 2)).unwrap();
        q2.try_push(tenant_task(1, Some(7), 2)).unwrap();
        assert_eq!(q2.pop().map(|t| t.id), Some(0));
        assert_eq!(q2.pop().map(|t| t.id), Some(1));
    }

    /// A light tenant submitting into a heavy tenant's flood is served
    /// next, not behind the whole backlog.
    #[test]
    fn light_tenant_jumps_a_flood() {
        let q = TaskQueue::new(64);
        for i in 0..20 {
            q.try_push(tenant_task(i, Some(9), 1)).unwrap();
        }
        // Two flood pops advance tenant 9's clock...
        assert_eq!(q.pop().map(|t| t.id), Some(0));
        assert_eq!(q.pop().map(|t| t.id), Some(1));
        // ...so the late-arriving light tenant (seeded at the active
        // floor, which is tenant 9's advanced clock) is NOT unfairly
        // ahead, but competes evenly from here.
        q.try_push(tenant_task(100, Some(5), 1)).unwrap();
        let next_two: Vec<u64> = (0..2).map(|_| q.pop().map(|t| t.id).unwrap()).collect();
        assert!(
            next_two.contains(&100),
            "light tenant served within two pops of arriving: {next_two:?}"
        );
    }

    /// A tenant that seeds its clock while the queue is momentarily
    /// empty must not restart at zero virtual time: that would buy it
    /// exclusive service until it caught up with a returning tenant's
    /// accumulated history. The system clock survives the drain, so
    /// service interleaves from the first pops.
    #[test]
    fn empty_queue_join_cannot_starve_a_returning_tenant() {
        let q = TaskQueue::new(16);
        // Tenant 1 works through a burst; the queue drains empty.
        for i in 0..4 {
            q.try_push(tenant_task(i, Some(1), 1)).unwrap();
        }
        for _ in 0..4 {
            assert!(q.pop().is_some());
        }
        assert_eq!(q.depth(), 0);
        // Tenant 2 joins at the quiet moment, then tenant 1 returns.
        for i in 0..4 {
            q.try_push(tenant_task(10 + i, Some(2), 1)).unwrap();
        }
        for i in 0..4 {
            q.try_push(tenant_task(20 + i, Some(1), 1)).unwrap();
        }
        let first_four: Vec<u32> = (0..4)
            .map(|_| q.pop().and_then(|t| t.tenant).unwrap())
            .collect();
        assert!(
            first_four.contains(&1),
            "returning tenant starved behind a fresh-seeded one: {first_four:?}"
        );
    }

    #[test]
    fn drain_remaining_empties_the_queue() {
        let q = TaskQueue::new(8);
        q.try_push(task(0)).unwrap();
        q.try_push(task(1)).unwrap();
        q.close(false); // graceful: items stay queued for workers
        let stranded = q.drain_remaining();
        assert_eq!(stranded.len(), 2);
        assert_eq!(q.depth(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn rejections_display() {
        assert!(Rejected::QueueFull { capacity: 4 }
            .to_string()
            .contains("capacity 4"));
        assert!(Rejected::TooLarge {
            what: "node",
            limit: 10,
            actual: 11
        }
        .to_string()
        .contains("admission limit"));
        assert!(Rejected::ShuttingDown.to_string().contains("shutting down"));
    }
}
