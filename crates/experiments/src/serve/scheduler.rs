//! Job table, bounded queue and worker coordination for `repro serve`.
//!
//! One mutex guards the whole job table (a [`BTreeMap`] keyed by job id), with two condvars
//! layered on top: `queue_ready` wakes workers when a job is enqueued, `events_ready` wakes
//! result streamers when a job appends an event. The queue is **bounded**: a submit that would
//! exceed the capacity is rejected with a `queue-full` error naming the capacity —
//! backpressure by refusal, never by blocking the accept loop.
//!
//! Job lifecycle: `queued -> running(worker) -> done | failed | cancelled`. A cancel hits a
//! queued job immediately (it never reaches a worker); a running job is flagged and the
//! worker abandons it at the next trial boundary.
//!
//! Every event line of a queued or running job is kept, and so are those of the last
//! [`RETAINED_FINISHED_JOBS`] jobs to finish, so `results` can re-stream a finished job for
//! a late client. When one more job finishes, the job that finished longest ago is evicted
//! with its record and event log, so memory stays bounded however many jobs a server
//! runs. A lookup of an evicted id reports [`Lookup::Expired`], which serve turns into an
//! `expired-job` error, and one of an id never issued reports [`Lookup::Unknown`]
//! (`unknown-job`). The `stats` counts are running totals kept at each phase change, so
//! an eviction does not change them.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use super::protocol::JobParams;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the bounded queue.
    Queued,
    /// Claimed by a worker thread.
    Running,
    /// All trials ran; the terminal event is a `summary`.
    Done,
    /// Build/instantiation failed; the terminal event is a `job-failed`.
    Failed,
    /// Cancelled before or during execution; the terminal event is a `job-cancelled`.
    Cancelled,
}

impl JobPhase {
    /// The protocol spelling of the phase.
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// Whether the job can make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled)
    }
}

/// A `status` response, captured under one lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusSnapshot {
    /// Current phase.
    pub phase: JobPhase,
    /// The worker executing the job, while running.
    pub worker: Option<usize>,
    /// Trials finished so far.
    pub trials_done: usize,
    /// Trials requested.
    pub trials_total: usize,
}

/// How many finished jobs keep their record and event log; see the module doc.
pub const RETAINED_FINISHED_JOBS: usize = 1024;

/// Why a job id has no record in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The id was never issued.
    Unknown,
    /// The job finished and its record was evicted.
    Expired,
}

/// Job counts for the `stats` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs ever accepted.
    pub submitted: u64,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs currently on a worker.
    pub running: usize,
    /// Jobs that finished all trials.
    pub done: usize,
    /// Jobs that failed to build.
    pub failed: usize,
    /// Jobs cancelled.
    pub cancelled: usize,
}

/// What a cancel request achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and is now terminally cancelled.
    Cancelled,
    /// The job is running; the worker will stop at the next trial boundary.
    Requested,
    /// The job had already reached a terminal phase.
    AlreadyTerminal,
    /// No record for this id.
    Missing(Lookup),
}

impl SchedulerStats {
    /// The count of jobs in `phase`.
    fn count_mut(&mut self, phase: JobPhase) -> &mut usize {
        match phase {
            JobPhase::Queued => &mut self.queued,
            JobPhase::Running => &mut self.running,
            JobPhase::Done => &mut self.done,
            JobPhase::Failed => &mut self.failed,
            JobPhase::Cancelled => &mut self.cancelled,
        }
    }
}

struct JobRecord {
    params: JobParams,
    phase: JobPhase,
    worker: Option<usize>,
    cancel_requested: bool,
    trials_done: usize,
    /// Every NDJSON line the job produced, in emission order (trial events, then exactly
    /// one terminal record).
    events: Vec<String>,
}

struct Inner {
    jobs: BTreeMap<u64, JobRecord>,
    queue: VecDeque<u64>,
    /// Ids of the retained finished jobs, in the order they finished.
    finished: VecDeque<u64>,
    next_id: u64,
    /// Running totals, updated at every phase change.
    stats: SchedulerStats,
}

impl Inner {
    /// Moves `job` to phase `to`, keeping the running totals. A job reaching a terminal
    /// phase joins the retained finished jobs, which may evict the oldest of them.
    fn set_phase(&mut self, job: u64, to: JobPhase) {
        let record = self.jobs.get_mut(&job).expect("only a job in the table changes phase");
        *self.stats.count_mut(record.phase) -= 1;
        *self.stats.count_mut(to) += 1;
        record.phase = to;
        if to.is_terminal() {
            self.finished.push_back(job);
            if self.finished.len() > RETAINED_FINISHED_JOBS {
                let oldest = self.finished.pop_front().expect("more than the cap retained");
                self.jobs.remove(&oldest);
            }
        }
    }

    /// Why `job` has no record: evicted if the id was issued, else unknown.
    fn missing(&self, job: u64) -> Lookup {
        if (1..self.next_id).contains(&job) {
            Lookup::Expired
        } else {
            Lookup::Unknown
        }
    }
}

/// Claims the next queued job id, if any.
// cobra-lint: hot
fn pop_ready(queue: &mut VecDeque<u64>) -> Option<u64> {
    queue.pop_front()
}

/// The shared scheduler: bounded job queue plus the job table.
pub struct Scheduler {
    inner: Mutex<Inner>,
    queue_ready: Condvar,
    events_ready: Condvar,
    queue_capacity: usize,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("queue_capacity", &self.queue_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Scheduler {
    /// Creates a scheduler whose queue holds at most `queue_capacity` waiting jobs.
    pub fn new(queue_capacity: usize) -> Self {
        Scheduler {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                finished: VecDeque::new(),
                next_id: 1,
                stats: SchedulerStats::default(),
            }),
            queue_ready: Condvar::new(),
            events_ready: Condvar::new(),
            queue_capacity,
            shutdown: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("scheduler poisoned")
    }

    fn enqueue_locked(inner: &mut Inner, params: JobParams) -> u64 {
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            JobRecord {
                params,
                phase: JobPhase::Queued,
                worker: None,
                cancel_requested: false,
                trials_done: 0,
                events: Vec::new(),
            },
        );
        inner.queue.push_back(id);
        inner.stats.submitted += 1;
        inner.stats.queued += 1;
        id
    }

    /// Accepts one job, or rejects it when the queue is at capacity.
    ///
    /// # Errors
    ///
    /// Returns the `queue-full` reason when `queued >= capacity`; the job table is
    /// untouched.
    pub fn submit(&self, params: JobParams) -> Result<u64, String> {
        let mut inner = self.lock();
        if inner.queue.len() >= self.queue_capacity {
            return Err(format!(
                "queue at capacity ({} queued of {} slots); retry after jobs drain",
                inner.queue.len(),
                self.queue_capacity
            ));
        }
        let id = Self::enqueue_locked(&mut inner, params);
        drop(inner);
        self.queue_ready.notify_one();
        Ok(id)
    }

    /// Accepts a whole batch atomically: either every job is enqueued (in order) or none.
    ///
    /// # Errors
    ///
    /// Returns the `queue-full` reason when the batch does not fit in the remaining
    /// capacity.
    pub fn submit_batch(&self, batch: Vec<JobParams>) -> Result<Vec<u64>, String> {
        let mut inner = self.lock();
        if inner.queue.len() + batch.len() > self.queue_capacity {
            return Err(format!(
                "batch of {} does not fit: {} queued of {} slots; retry after jobs drain",
                batch.len(),
                inner.queue.len(),
                self.queue_capacity
            ));
        }
        let ids: Vec<u64> =
            batch.into_iter().map(|params| Self::enqueue_locked(&mut inner, params)).collect();
        drop(inner);
        self.queue_ready.notify_all();
        Ok(ids)
    }

    /// Blocks until a job is available (returning its id and params, with the job marked
    /// running on `worker`) or the scheduler shuts down (returning `None`).
    pub fn next_job(&self, worker: usize) -> Option<(u64, JobParams)> {
        let mut inner = self.lock();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(id) = pop_ready(&mut inner.queue) {
                inner.set_phase(id, JobPhase::Running);
                let record = inner.jobs.get_mut(&id).expect("queued job must exist");
                record.worker = Some(worker);
                return Some((id, record.params.clone()));
            }
            inner = self.queue_ready.wait(inner).expect("scheduler poisoned");
        }
    }

    /// Appends one trial event to a running job and bumps its progress counter.
    pub fn record_trial(&self, job: u64, event: String) {
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(&job) {
            record.trials_done += 1;
            record.events.push(event);
        }
        drop(inner);
        self.events_ready.notify_all();
    }

    /// Appends the terminal event and moves the job to `phase` (which must be terminal).
    pub fn finish(&self, job: u64, event: String, phase: JobPhase) {
        debug_assert!(phase.is_terminal());
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(&job) {
            record.worker = None;
            record.events.push(event);
            inner.set_phase(job, phase);
        }
        drop(inner);
        self.events_ready.notify_all();
    }

    /// Requests cancellation. A queued job becomes terminal immediately, with
    /// `terminal_event` as its stream's last record; a running job is flagged for its
    /// worker to notice at the next trial boundary.
    pub fn cancel(&self, job: u64, terminal_event: &str) -> CancelOutcome {
        let mut inner = self.lock();
        let missing = inner.missing(job);
        let Some(record) = inner.jobs.get_mut(&job) else { return CancelOutcome::Missing(missing) };
        let outcome = match record.phase {
            JobPhase::Queued => {
                record.events.push(terminal_event.to_string());
                inner.queue.retain(|&queued| queued != job);
                inner.set_phase(job, JobPhase::Cancelled);
                CancelOutcome::Cancelled
            }
            JobPhase::Running => {
                record.cancel_requested = true;
                CancelOutcome::Requested
            }
            JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled => {
                CancelOutcome::AlreadyTerminal
            }
        };
        drop(inner);
        self.events_ready.notify_all();
        outcome
    }

    /// Whether the worker executing `job` should abandon it at the next trial boundary
    /// (client cancel, or server shutdown).
    pub fn should_abort(&self, job: u64) -> bool {
        if self.shutdown.load(Ordering::SeqCst) {
            return true;
        }
        self.lock().jobs.get(&job).is_some_and(|record| record.cancel_requested)
    }

    /// The job's phase and progress.
    ///
    /// # Errors
    ///
    /// Returns why the table holds no record for `job`.
    pub fn status(&self, job: u64) -> Result<StatusSnapshot, Lookup> {
        let inner = self.lock();
        let record = inner.jobs.get(&job).ok_or_else(|| inner.missing(job))?;
        Ok(StatusSnapshot {
            phase: record.phase,
            worker: record.worker,
            trials_done: record.trials_done,
            trials_total: record.params.trials,
        })
    }

    /// Blocks until `job` has events past `cursor` (returning the new lines and whether the
    /// job is terminal) or the scheduler shuts down (returning an empty terminal batch).
    ///
    /// # Errors
    ///
    /// Returns why the table holds no record for `job`, also when the job is evicted while
    /// a streamer waits.
    pub fn next_events(&self, job: u64, cursor: usize) -> Result<(Vec<String>, bool), Lookup> {
        let mut inner = self.lock();
        loop {
            let record = inner.jobs.get(&job).ok_or_else(|| inner.missing(job))?;
            let terminal = record.phase.is_terminal();
            if record.events.len() > cursor {
                return Ok((record.events[cursor..].to_vec(), terminal));
            }
            if terminal || self.shutdown.load(Ordering::SeqCst) {
                return Ok((Vec::new(), true));
            }
            inner = self.events_ready.wait(inner).expect("scheduler poisoned");
        }
    }

    /// Job counts by phase, and jobs ever accepted.
    pub fn stats(&self) -> SchedulerStats {
        self.lock().stats
    }

    /// Signals every blocked worker and streamer to wind down.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_ready.notify_all();
        self.events_ready.notify_all();
    }

    /// Whether [`Scheduler::shutdown`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::default_family;

    fn params() -> JobParams {
        JobParams {
            spec: "cobra:k=2".parse().unwrap(),
            family: default_family(),
            trials: 2,
            seed: 1,
            max_rounds: 100,
            trace: false,
        }
    }

    #[test]
    fn queue_capacity_backpressure_rejects_with_reason() {
        let scheduler = Scheduler::new(2);
        scheduler.submit(params()).unwrap();
        scheduler.submit(params()).unwrap();
        let reason = scheduler.submit(params()).unwrap_err();
        assert!(reason.contains("capacity"), "{reason}");
        // Batches are atomic: a 2-job batch does not fit half-way into 1 free slot.
        let scheduler = Scheduler::new(3);
        scheduler.submit(params()).unwrap();
        scheduler.submit(params()).unwrap();
        let reason = scheduler.submit_batch(vec![params(), params()]).unwrap_err();
        assert!(reason.contains("batch of 2"), "{reason}");
        assert_eq!(scheduler.stats().submitted, 2, "rejected batch must not enqueue anything");
        // After a worker drains one, the batch fits.
        assert!(scheduler.next_job(0).is_some());
        assert_eq!(scheduler.submit_batch(vec![params(), params()]).unwrap(), vec![3, 4]);
    }

    #[test]
    fn lifecycle_queued_running_done_with_event_streaming() {
        let scheduler = Scheduler::new(8);
        let id = scheduler.submit(params()).unwrap();
        assert_eq!(scheduler.status(id).unwrap().phase, JobPhase::Queued);
        let (claimed, job_params) = scheduler.next_job(3).unwrap();
        assert_eq!(claimed, id);
        assert_eq!(job_params.trials, 2);
        let status = scheduler.status(id).unwrap();
        assert_eq!((status.phase, status.worker), (JobPhase::Running, Some(3)));
        scheduler.record_trial(id, "trial-0".to_string());
        scheduler.finish(id, "summary".to_string(), JobPhase::Done);
        let (events, terminal) = scheduler.next_events(id, 0).unwrap();
        assert_eq!(events, ["trial-0", "summary"]);
        assert!(terminal);
        // Re-streaming from the end reports a drained terminal job.
        let (tail, terminal) = scheduler.next_events(id, 2).unwrap();
        assert!(tail.is_empty() && terminal);
        assert_eq!(scheduler.status(id).unwrap().trials_done, 1);
        assert_eq!(scheduler.stats().done, 1);
    }

    #[test]
    fn cancel_semantics_per_phase() {
        let scheduler = Scheduler::new(8);
        let queued = scheduler.submit(params()).unwrap();
        assert_eq!(scheduler.cancel(queued, "cancelled-event"), CancelOutcome::Cancelled);
        assert_eq!(scheduler.status(queued).unwrap().phase, JobPhase::Cancelled);
        let (events, terminal) = scheduler.next_events(queued, 0).unwrap();
        assert_eq!(events, ["cancelled-event"]);
        assert!(terminal);
        // The cancelled job never reaches a worker; the next submit does.
        let running = scheduler.submit(params()).unwrap();
        assert_eq!(scheduler.next_job(0).unwrap().0, running);
        assert_eq!(scheduler.cancel(running, "unused"), CancelOutcome::Requested);
        assert!(scheduler.should_abort(running));
        scheduler.finish(running, "cancelled-event".to_string(), JobPhase::Cancelled);
        assert_eq!(scheduler.cancel(running, "unused"), CancelOutcome::AlreadyTerminal);
        assert_eq!(scheduler.cancel(999, "unused"), CancelOutcome::Missing(Lookup::Unknown));
    }

    #[test]
    fn finished_jobs_past_the_cap_are_evicted_oldest_first_and_totals_survive() {
        let scheduler = Scheduler::new(RETAINED_FINISHED_JOBS + 8);
        let cancelled = scheduler.submit(params()).unwrap();
        scheduler.cancel(cancelled, "cancelled-event");
        let running = scheduler.submit(params()).unwrap();
        assert_eq!(scheduler.next_job(0).unwrap().0, running);
        for _ in 0..RETAINED_FINISHED_JOBS {
            let id = scheduler.submit(params()).unwrap();
            let (claimed, _) = scheduler.next_job(1).unwrap();
            assert_eq!(claimed, id);
            scheduler.finish(id, "summary".to_string(), JobPhase::Done);
        }
        // The cancelled job finished first, so it is the one evicted; the running job is
        // never evicted, however long it runs.
        assert_eq!(scheduler.status(cancelled), Err(Lookup::Expired));
        assert_eq!(scheduler.next_events(cancelled, 0), Err(Lookup::Expired));
        assert_eq!(scheduler.cancel(cancelled, "unused"), CancelOutcome::Missing(Lookup::Expired));
        assert_eq!(scheduler.status(running).unwrap().phase, JobPhase::Running);
        assert_eq!(scheduler.status(running + 1).unwrap().phase, JobPhase::Done);
        let never_issued = RETAINED_FINISHED_JOBS as u64 + 3;
        assert_eq!(scheduler.status(never_issued), Err(Lookup::Unknown));
        assert_eq!(scheduler.status(0), Err(Lookup::Unknown));
        let stats = scheduler.stats();
        assert_eq!(
            (stats.submitted, stats.queued, stats.running, stats.done, stats.cancelled),
            (RETAINED_FINISHED_JOBS as u64 + 2, 0, 1, RETAINED_FINISHED_JOBS, 1)
        );
        // Finishing the running job evicts the oldest done job, not the newest.
        scheduler.finish(running, "summary".to_string(), JobPhase::Failed);
        assert_eq!(scheduler.status(running + 1), Err(Lookup::Expired));
        assert_eq!(scheduler.status(running + 2).unwrap().phase, JobPhase::Done);
        assert_eq!(scheduler.status(running).unwrap().phase, JobPhase::Failed);
        assert_eq!((scheduler.stats().running, scheduler.stats().failed), (0, 1));
    }

    #[test]
    fn shutdown_unblocks_workers_and_streamers() {
        let scheduler = std::sync::Arc::new(Scheduler::new(8));
        let id = scheduler.submit(params()).unwrap();
        assert!(scheduler.next_job(0).is_some());
        let waiter = {
            let scheduler = std::sync::Arc::clone(&scheduler);
            std::thread::spawn(move || {
                // Blocks: the job is running with no events yet.
                let (events, terminal) = scheduler.next_events(id, 0).unwrap();
                (events.len(), terminal)
            })
        };
        let worker = {
            let scheduler = std::sync::Arc::clone(&scheduler);
            std::thread::spawn(move || scheduler.next_job(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        scheduler.shutdown();
        assert_eq!(waiter.join().unwrap(), (0, true));
        assert!(worker.join().unwrap().is_none());
        assert!(scheduler.should_abort(id), "shutdown aborts in-flight jobs");
    }
}
