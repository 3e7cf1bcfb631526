//! Jobs, the bounded job queue, and completion signalling.
//!
//! Every POST endpoint turns its parsed request into a [`Job`] and
//! offers it to the [`JobQueue`]. The queue is **bounded**: when
//! `queue_cap` jobs are already waiting the submission is refused and
//! the HTTP layer answers `503` with `Retry-After` — backpressure is
//! explicit, requests are never dropped silently. Worker threads pop
//! jobs in FIFO order, execute them, and publish the terminal state
//! through a mutex + condvar pair that synchronous waiters (and async
//! pollers via `/v1/jobs/<id>`) observe.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::api::Work;

/// Lifecycle of one submitted job.
#[derive(Debug, Clone)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Claimed by a worker, executing.
    Running,
    /// Finished successfully; holds the rendered JSON result core.
    Done(String),
    /// Finished with an error: HTTP status plus message.
    Failed(u16, String),
}

impl JobState {
    /// Short lowercase status name for responses (`queued`, `running`,
    /// `done`, `failed`).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(..) => "failed",
        }
    }

    /// Whether the job reached a terminal state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(..))
    }
}

/// One unit of queued work plus its completion signal.
#[derive(Debug)]
pub struct Job {
    /// Monotonic job id (also the `/v1/jobs/<id>` handle).
    pub id: u64,
    /// Endpoint name (`solve`, `schedule`, …) for stats and traces.
    pub endpoint: &'static str,
    /// The parsed work to execute.
    pub work: Work,
    /// Content-address of the instance (result cache key).
    pub cache_key: String,
    /// Wall-clock point after which the job must not start executing.
    pub deadline: Instant,
    state: Mutex<JobState>,
    done: Condvar,
}

impl Job {
    /// A freshly queued job.
    #[must_use]
    pub fn new(id: u64, work: Work, cache_key: String, deadline: Instant) -> Self {
        Job {
            id,
            endpoint: work.endpoint(),
            work,
            cache_key,
            deadline,
            state: Mutex::new(JobState::Queued),
            done: Condvar::new(),
        }
    }

    /// Snapshot of the current state.
    #[must_use]
    pub fn state(&self) -> JobState {
        self.state.lock().unwrap().clone()
    }

    /// Whether the job reached a terminal state; unlike
    /// [`Job::state`], this never copies a result.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        self.state.lock().unwrap().is_terminal()
    }

    /// Transitions `Queued → Running`; returns `false` when the job is
    /// no longer claimable (already terminal).
    pub fn claim(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if matches!(*st, JobState::Queued) {
            *st = JobState::Running;
            true
        } else {
            false
        }
    }

    /// Publishes a terminal state and wakes every waiter.
    pub fn finish(&self, terminal: JobState) {
        debug_assert!(terminal.is_terminal());
        let mut st = self.state.lock().unwrap();
        *st = terminal;
        drop(st);
        self.done.notify_all();
    }

    /// Blocks until the job reaches a terminal state or `deadline`
    /// passes, returning the state observed last (possibly still
    /// `Queued`/`Running` on timeout).
    #[must_use]
    pub fn wait_until(&self, deadline: Instant) -> JobState {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.is_terminal() {
                return st.clone();
            }
            let now = Instant::now();
            if now >= deadline {
                return st.clone();
            }
            let (guard, _timeout) = self.done.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }
}

/// Prunes the job registry (id-ordered, and ids are handed out in
/// submission order) down to `keep` entries by dropping the oldest
/// terminal jobs. Queued and running jobs are never dropped, so nothing
/// admitted loses its handle; the registry may stay above `keep` while
/// they hold it there.
pub(crate) fn prune_terminal(jobs: &mut BTreeMap<u64, Arc<Job>>, keep: usize) {
    while jobs.len() > keep {
        let Some(id) = jobs.values().find(|j| j.is_terminal()).map(|j| j.id) else {
            return;
        };
        jobs.remove(&id);
    }
}

struct QueueInner {
    q: VecDeque<Arc<Job>>,
    shutdown: bool,
}

/// The bounded FIFO feeding the worker pool.
pub struct JobQueue {
    cap: usize,
    inner: Mutex<QueueInner>,
    nonempty: Condvar,
}

/// Refusal reason from [`JobQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// `queue_cap` jobs are already waiting (backpressure → 503).
    Full,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
}

impl JobQueue {
    /// A queue admitting at most `cap` waiting jobs.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        JobQueue {
            cap,
            inner: Mutex::new(QueueInner {
                q: VecDeque::new(),
                shutdown: false,
            }),
            nonempty: Condvar::new(),
        }
    }

    /// Offers a job; on success returns the queue depth *including* the
    /// new job, for the `serve.queue.depth` gauge.
    ///
    /// # Errors
    /// [`PushError::Full`] under backpressure, [`PushError::ShuttingDown`]
    /// once draining has begun.
    pub fn push(&self, job: Arc<Job>) -> Result<usize, PushError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.shutdown {
            return Err(PushError::ShuttingDown);
        }
        if inner.q.len() >= self.cap {
            return Err(PushError::Full);
        }
        inner.q.push_back(job);
        let depth = inner.q.len();
        drop(inner);
        self.nonempty.notify_one();
        Ok(depth)
    }

    /// Blocks for the next job. Returns `None` only when the queue is
    /// shutting down **and** fully drained, so in-flight work always
    /// completes before workers exit.
    #[must_use]
    pub fn pop(&self) -> Option<Arc<Job>> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.q.pop_front() {
                return Some(job);
            }
            if inner.shutdown {
                return None;
            }
            inner = self.nonempty.wait(inner).unwrap();
        }
    }

    /// Current number of waiting jobs.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().q.len()
    }

    /// Begins draining: no further pushes are admitted; workers exit
    /// once the backlog is empty.
    pub fn begin_shutdown(&self) {
        self.inner.lock().unwrap().shutdown = true;
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn mk_job(id: u64) -> Arc<Job> {
        Arc::new(Job::new(
            id,
            Work::Generate {
                family: "chain".into(),
                params: vec![2],
            },
            format!("key{id}"),
            Instant::now() + Duration::from_secs(5),
        ))
    }

    #[test]
    fn bounded_push_rejects_when_full() {
        let q = JobQueue::new(2);
        assert_eq!(q.push(mk_job(1)), Ok(1));
        assert_eq!(q.push(mk_job(2)), Ok(2));
        assert_eq!(q.push(mk_job(3)), Err(PushError::Full));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn shutdown_drains_backlog_then_stops() {
        let q = JobQueue::new(8);
        q.push(mk_job(1)).unwrap();
        q.push(mk_job(2)).unwrap();
        q.begin_shutdown();
        assert_eq!(q.push(mk_job(3)), Err(PushError::ShuttingDown));
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
        assert!(q.pop().is_none(), "drained queue signals worker exit");
    }

    #[test]
    fn job_state_machine_and_waiters() {
        let job = mk_job(7);
        assert_eq!(job.state().name(), "queued");
        assert!(job.claim());
        assert!(!job.claim(), "a running job cannot be claimed twice");
        assert_eq!(job.state().name(), "running");

        let waiter = {
            let job = Arc::clone(&job);
            std::thread::spawn(move || job.wait_until(Instant::now() + Duration::from_secs(5)))
        };
        job.finish(JobState::Done("{}".into()));
        let seen = waiter.join().unwrap();
        assert_eq!(seen.name(), "done");
    }

    #[test]
    fn registry_prunes_the_oldest_terminal_jobs_only() {
        let mut jobs: BTreeMap<u64, Arc<Job>> = (1..=8).map(|id| (id, mk_job(id))).collect();
        // 1 and 4 are running, 2 still queued; the rest finished.
        assert!(jobs[&1].claim() && jobs[&4].claim());
        for id in [3, 5, 6, 7, 8] {
            jobs[&id].finish(JobState::Done(format!("{{\"id\":{id}}}")));
        }
        prune_terminal(&mut jobs, 5);
        assert_eq!(jobs.keys().copied().collect::<Vec<_>>(), [1, 2, 4, 7, 8]);
        // Already within bounds: nothing goes.
        prune_terminal(&mut jobs, 5);
        assert_eq!(jobs.len(), 5);
        // Only live jobs left below the bound: the registry keeps them
        // all rather than drop a handle.
        prune_terminal(&mut jobs, 1);
        assert_eq!(jobs.keys().copied().collect::<Vec<_>>(), [1, 2, 4]);
        jobs[&1].finish(JobState::Failed(500, "boom".into()));
        prune_terminal(&mut jobs, 1);
        assert_eq!(jobs.keys().copied().collect::<Vec<_>>(), [2, 4]);
    }

    #[test]
    fn wait_times_out_on_stuck_job() {
        let job = mk_job(8);
        let seen = job.wait_until(Instant::now() + Duration::from_millis(20));
        assert_eq!(seen.name(), "queued");
        assert!(!seen.is_terminal());
    }
}
