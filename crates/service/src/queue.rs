//! The bounded submission queue: priority-class admission of solve jobs
//! with capacity-based back-pressure and pre-dispatch deadline expiry.
//!
//! This is a plain data structure — the service serializes access to it
//! under its state mutex. Admission control is synchronous and immediate:
//! `SubmissionQueue::try_push` on a full queue returns
//! [`SuiteError::Rejected`] rather than blocking, so an overloaded service
//! sheds load at submission time instead of hanging clients.
//!
//! # Priority classes
//!
//! [`cdd_core::Priority`] maps onto the queue in two ways, neither of which
//! can change a computed answer (dispatch *order* is not part of the
//! determinism contract — fitness is pure in the request):
//!
//! 1. **Ordering** — a new job enters behind every queued job of its own or
//!    a higher class and ahead of lower classes (FIFO within a class). The
//!    inherited front segment (supervisor retries, promoted followers) is
//!    never reordered: those jobs were already admitted and dispatched once,
//!    so they outrank any fresh arrival regardless of class.
//! 2. **Admission headroom** — `batch` jobs are rejected once the admitted
//!    depth reaches ¾ of capacity, reserving the last quarter of the queue
//!    for `normal`/`interactive` traffic under load.

use cdd_core::{Priority, SolveRequest, SuiteError};
use cdd_metrics::FlightHop;
use std::collections::VecDeque;
use std::time::Instant;

/// One queued solve: the primary carrier of a content key. Identical
/// requests submitted while this job is queued or in flight coalesce onto
/// it (tracked by the service's follower table, not the queue).
#[derive(Debug)]
pub(crate) struct QueuedJob {
    /// Ticket of the submitting client.
    pub ticket: u64,
    /// The work to run.
    pub request: SolveRequest,
    /// Cached `request.content_key()`.
    pub key: u64,
    /// Submission time (latency accounting and deadline expiry). Survives
    /// retries: a re-dispatched job keeps its original submission instant,
    /// so its deadline never resets.
    pub submitted: Instant,
    /// Supervisor re-dispatches this job has been through (0 = original
    /// dispatch). Drives the deterministic retry fault-plan derivation and
    /// the bounded retry budget.
    pub retries: u32,
    /// Hop spans recorded along this job's path through the service
    /// (queue wait, retries, worker attempts). Empty — and never appended
    /// to — unless the request carries a sampled trace context, so
    /// untraced runs pay nothing.
    pub hops: Vec<FlightHop>,
}

impl QueuedJob {
    /// Whether the request's pre-dispatch deadline has passed. A deadline
    /// of 0 ms expires immediately (and deterministically); `None` never
    /// expires. The comparison is done in `u128` — truncating the elapsed
    /// milliseconds to `u64` could wrap and expire a huge deadline early.
    pub fn expired(&self) -> bool {
        match self.request.deadline_ms {
            Some(ms) => self.submitted.elapsed().as_millis() >= u128::from(ms),
            None => false,
        }
    }
}

/// Depth/admission counters of the queue.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs accepted into the queue.
    pub enqueued: u64,
    /// Submissions refused because the queue was full.
    pub rejected: u64,
    /// Jobs re-admitted at the front into an inherited slot
    /// (`SubmissionQueue::requeue_front`).
    pub requeued: u64,
    /// Jobs re-admitted by the supervisor after a worker crash
    /// (`SubmissionQueue::requeue_retry`).
    pub retried: u64,
    /// Deepest the queue of *admitted* slots ever got. Inherited re-admits
    /// reuse a slot that was already counted at admission, so this never
    /// exceeds the configured capacity.
    pub peak_depth: usize,
}

/// A capacity-bounded FIFO of pending solves.
pub(crate) struct SubmissionQueue {
    capacity: usize,
    jobs: VecDeque<QueuedJob>,
    /// Jobs currently in the queue that entered through
    /// [`requeue_front`](Self::requeue_front). Inherited jobs only ever
    /// enter at the front and `pop` takes from the front, so while this is
    /// non-zero the front `inherited` jobs are exactly the inherited ones —
    /// which lets `pop` decrement the count without per-job flags.
    inherited: usize,
    stats: QueueStats,
}

impl SubmissionQueue {
    pub fn new(capacity: usize) -> Self {
        SubmissionQueue {
            capacity: capacity.max(1),
            jobs: VecDeque::new(),
            inherited: 0,
            stats: QueueStats::default(),
        }
    }

    /// Queue depth counting only admitted slots: a job re-admitted into an
    /// inherited slot was already counted when its slot was first admitted.
    fn admitted_depth(&self) -> usize {
        self.jobs.len() - self.inherited
    }

    /// Capacity visible to `batch` submissions: the last quarter of the
    /// queue is reserved for `normal`/`interactive` traffic (never below 1
    /// slot, so a tiny queue still admits batch work when idle).
    fn batch_capacity(&self) -> usize {
        (self.capacity - self.capacity / 4).max(1)
    }

    /// Admit a job into its priority class's position, or reject it
    /// immediately when the class's capacity is exhausted. Within the
    /// non-inherited segment the job enters behind its own and higher
    /// classes and ahead of strictly lower ones (FIFO per class); the
    /// inherited front segment is never reordered.
    pub fn try_push(&mut self, job: QueuedJob) -> Result<(), SuiteError> {
        if self.jobs.len() >= self.capacity {
            self.stats.rejected += 1;
            return Err(SuiteError::rejected(format!(
                "submission queue full ({} pending requests)",
                self.jobs.len()
            )));
        }
        if job.request.priority == Priority::Batch && self.admitted_depth() >= self.batch_capacity()
        {
            self.stats.rejected += 1;
            return Err(SuiteError::rejected(format!(
                "batch headroom exhausted ({} pending requests; batch admits up to {})",
                self.jobs.len(),
                self.batch_capacity()
            )));
        }
        let pos = (self.inherited..self.jobs.len())
            .find(|&i| self.jobs[i].request.priority < job.request.priority)
            .unwrap_or(self.jobs.len());
        self.jobs.insert(pos, job);
        self.stats.enqueued += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.admitted_depth());
        Ok(())
    }

    /// Re-admit a job at the *front*, bypassing the capacity check — used
    /// when a coalesced follower outlives an expired primary and inherits
    /// its (already admitted) queue slot. The slot was counted in
    /// `peak_depth` when it was first admitted, so re-admission leaves the
    /// admitted depth unchanged (it cannot push `peak_depth` past the
    /// configured capacity).
    pub fn requeue_front(&mut self, job: QueuedJob) {
        self.jobs.push_front(job);
        self.inherited += 1;
        self.stats.requeued += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.admitted_depth());
    }

    /// Re-admit a crashed-and-retried job into the inherited front segment,
    /// **ordered by ticket among the retried/inherited peers already
    /// there**. Retries therefore re-enter ahead of every new arrival (they
    /// cannot deadline-starve behind fresh submissions) while preserving
    /// the original arrival order among themselves — unlike
    /// [`requeue_front`](Self::requeue_front), which is LIFO by design (the
    /// promoted follower has been waiting longest). The job keeps its
    /// original `submitted` instant (and therefore its original deadline)
    /// and inherits its already-admitted slot, bypassing capacity.
    pub fn requeue_retry(&mut self, job: QueuedJob) {
        let pos = self
            .jobs
            .iter()
            .take(self.inherited)
            .position(|j| j.ticket > job.ticket)
            .unwrap_or(self.inherited);
        self.jobs.insert(pos, job);
        self.inherited += 1;
        self.stats.retried += 1;
        self.stats.peak_depth = self.stats.peak_depth.max(self.admitted_depth());
    }

    /// Pop the front job only when `pred` accepts it. Lets a worker drain
    /// expired heads (and decide whether to take work at all) without ever
    /// holding a job outside the queue — which matters for breaker gating:
    /// the half-open probe must only be consumed when a job is actually
    /// taken.
    pub fn pop_if(&mut self, pred: impl FnOnce(&QueuedJob) -> bool) -> Option<QueuedJob> {
        if pred(self.jobs.front()?) {
            self.pop()
        } else {
            None
        }
    }

    /// Next job in FIFO order.
    pub fn pop(&mut self) -> Option<QueuedJob> {
        let job = self.jobs.pop_front();
        if job.is_some() && self.inherited > 0 {
            self.inherited -= 1;
        }
        job
    }

    /// Remove and return every queued job matching `pred` (used by the
    /// brownout path to pull deadline-pressured jobs for degraded answers).
    /// Keeps the inherited-slot accounting consistent: extracted inherited
    /// jobs no longer count toward the front segment.
    pub fn extract_if(&mut self, mut pred: impl FnMut(&QueuedJob) -> bool) -> Vec<QueuedJob> {
        let inherited_before = self.inherited;
        let mut kept = VecDeque::with_capacity(self.jobs.len());
        let mut out = Vec::new();
        let mut kept_inherited = 0;
        for (i, job) in self.jobs.drain(..).enumerate() {
            if pred(&job) {
                out.push(job);
            } else {
                if i < inherited_before {
                    kept_inherited += 1;
                }
                kept.push_back(job);
            }
        }
        self.jobs = kept;
        self.inherited = kept_inherited;
        out
    }

    /// Jobs currently queued (admitted + inherited).
    pub fn depth(&self) -> usize {
        self.jobs.len()
    }

    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::{Algorithm, Instance};

    fn job(ticket: u64, deadline_ms: Option<u64>) -> QueuedJob {
        let request = SolveRequest {
            deadline_ms,
            ..SolveRequest::new(Instance::paper_example_cdd(), Algorithm::Sa, 10, ticket)
        };
        let key = request.content_key();
        QueuedJob { ticket, request, key, submitted: Instant::now(), retries: 0, hops: Vec::new() }
    }

    #[test]
    fn saturation_rejects_instead_of_blocking() {
        let mut q = SubmissionQueue::new(2);
        q.try_push(job(1, None)).unwrap();
        q.try_push(job(2, None)).unwrap();
        let err = q.try_push(job(3, None)).unwrap_err();
        assert!(matches!(err, SuiteError::Rejected { .. }), "got {err:?}");
        assert_eq!(q.stats().rejected, 1);
        q.pop().unwrap();
        q.try_push(job(3, None)).expect("slot freed");
        assert_eq!(q.stats().peak_depth, 2);
    }

    #[test]
    fn fifo_order_and_front_requeue() {
        let mut q = SubmissionQueue::new(4);
        q.try_push(job(1, None)).unwrap();
        q.try_push(job(2, None)).unwrap();
        let first = q.pop().unwrap();
        assert_eq!(first.ticket, 1);
        q.requeue_front(first);
        assert_eq!(q.pop().unwrap().ticket, 1, "requeued job runs next");
        assert_eq!(q.pop().unwrap().ticket, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn zero_deadline_expires_immediately_and_none_never() {
        assert!(job(1, Some(0)).expired());
        assert!(!job(1, None).expired());
        assert!(!job(1, Some(60_000)).expired());
    }

    #[test]
    fn huge_deadline_cannot_expire_prematurely() {
        // Regression: the elapsed/deadline comparison used to truncate the
        // u128 elapsed-ms to u64 before comparing; the comparison now stays
        // in u128 so a deadline near u64::MAX can never wrap into an
        // immediate expiry.
        assert!(!job(1, Some(u64::MAX)).expired());
        assert!(!job(1, Some(u64::MAX - 1)).expired());
    }

    #[test]
    fn inherited_requeue_cannot_push_peak_depth_past_capacity() {
        // Regression: requeue_front between a pop and a refill used to
        // report peak_depth = capacity + 1 even though only `capacity` slots
        // were ever admitted.
        let mut q = SubmissionQueue::new(2);
        q.try_push(job(1, None)).unwrap();
        q.try_push(job(2, None)).unwrap();
        let popped = q.pop().unwrap();
        q.try_push(job(3, None)).expect("slot freed by pop");
        q.requeue_front(popped); // inherits its already-admitted slot back
        assert_eq!(q.stats().peak_depth, 2, "peak stays at the configured capacity");
        assert_eq!(q.stats().requeued, 1, "the inherited re-admit is tracked separately");
        // The physical queue really does hold 3 jobs; draining proves no
        // job was lost to the accounting.
        assert_eq!(q.pop().unwrap().ticket, 1);
        assert_eq!(q.pop().unwrap().ticket, 2);
        assert_eq!(q.pop().unwrap().ticket, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn retried_jobs_reenter_at_the_front_in_original_arrival_order() {
        // Satellite: a crashed job's retry must re-enter *ahead of new
        // arrivals* (no deadline starvation) but keep the original arrival
        // order among retried peers — and keep its original deadline.
        let mut q = SubmissionQueue::new(8);
        for t in 1..=4 {
            q.try_push(job(t, Some(60_000))).unwrap();
        }
        let j1 = q.pop().unwrap(); // tickets 1 and 2 get dispatched…
        let mut j2 = q.pop().unwrap();
        let submitted_2 = j2.submitted;
        q.try_push(job(5, None)).unwrap(); // …while a new request arrives.

        // Both dispatched jobs crash; the supervisor retries 2 before 1.
        j2.retries += 1;
        q.requeue_retry(j2);
        q.requeue_retry(j1);
        assert_eq!(q.stats().retried, 2);

        // Retries run first, in original arrival order; then the untouched
        // FIFO tail; new arrivals never starve a retry.
        let first = q.pop().unwrap();
        assert_eq!(first.ticket, 1, "arrival order among retried peers");
        let second = q.pop().unwrap();
        assert_eq!(second.ticket, 2);
        assert_eq!(second.submitted, submitted_2, "original deadline clock is preserved");
        assert_eq!(second.retries, 1);
        assert_eq!(q.pop().unwrap().ticket, 3);
        assert_eq!(q.pop().unwrap().ticket, 4);
        assert_eq!(q.pop().unwrap().ticket, 5);
        assert!(q.pop().is_none());
    }

    #[test]
    fn retry_reentry_interleaves_with_promoted_followers() {
        // requeue_retry orders among the *inherited segment* by ticket, so
        // a retried job slots correctly even when expiry promotions
        // (LIFO requeue_front) already populated the front.
        let mut q = SubmissionQueue::new(8);
        for t in 1..=3 {
            q.try_push(job(t, None)).unwrap();
        }
        let j1 = q.pop().unwrap();
        let j2 = q.pop().unwrap();
        q.requeue_front(j2); // a promoted follower sits at the front
        q.requeue_retry(j1); // the retried job (older ticket) goes before it
        assert_eq!(q.pop().unwrap().ticket, 1);
        assert_eq!(q.pop().unwrap().ticket, 2);
        assert_eq!(q.pop().unwrap().ticket, 3);
    }

    #[test]
    fn extract_if_keeps_inherited_accounting_consistent() {
        let mut q = SubmissionQueue::new(8);
        for t in 1..=4 {
            q.try_push(job(t, if t == 3 { Some(5) } else { None })).unwrap();
        }
        let j1 = q.pop().unwrap();
        q.requeue_retry(j1); // front segment: [1]
        let pulled = q.extract_if(|j| j.request.deadline_ms.is_some());
        assert_eq!(pulled.len(), 1);
        assert_eq!(pulled[0].ticket, 3);
        // The inherited job survived the extraction and still runs first.
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop().unwrap().ticket, 1);
        // Extracting the inherited job itself also rebalances the count.
        let j2 = q.pop().unwrap();
        q.requeue_retry(j2);
        let pulled = q.extract_if(|j| j.ticket == 2);
        assert_eq!(pulled.len(), 1);
        assert_eq!(q.pop().unwrap().ticket, 4);
        assert!(q.pop().is_none());
    }

    fn job_at(ticket: u64, priority: Priority) -> QueuedJob {
        let mut j = job(ticket, None);
        j.request.priority = priority;
        j
    }

    #[test]
    fn higher_priority_jobs_are_dispatched_first_fifo_within_class() {
        let mut q = SubmissionQueue::new(8);
        q.try_push(job_at(1, Priority::Normal)).unwrap();
        q.try_push(job_at(2, Priority::Batch)).unwrap();
        q.try_push(job_at(3, Priority::Interactive)).unwrap();
        q.try_push(job_at(4, Priority::Normal)).unwrap();
        q.try_push(job_at(5, Priority::Interactive)).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.ticket).collect();
        assert_eq!(order, [3, 5, 1, 4, 2], "interactive, then normal, then batch; FIFO within");
    }

    #[test]
    fn priority_insertion_never_reorders_the_inherited_front_segment() {
        let mut q = SubmissionQueue::new(8);
        q.try_push(job_at(1, Priority::Batch)).unwrap();
        let dispatched = q.pop().unwrap(); // the batch job was already running
        q.try_push(job_at(2, Priority::Normal)).unwrap();
        q.requeue_retry(dispatched);
        // A fresh interactive arrival outranks queued lower classes but not
        // the retried job: that one was admitted and dispatched already.
        q.try_push(job_at(3, Priority::Interactive)).unwrap();
        assert_eq!(q.pop().unwrap().ticket, 1, "retry runs first despite being batch");
        assert_eq!(q.pop().unwrap().ticket, 3);
        assert_eq!(q.pop().unwrap().ticket, 2);
    }

    #[test]
    fn batch_loses_its_headroom_under_load_but_higher_classes_keep_theirs() {
        let mut q = SubmissionQueue::new(4); // batch capacity: 3
        q.try_push(job_at(1, Priority::Batch)).unwrap();
        q.try_push(job_at(2, Priority::Batch)).unwrap();
        q.try_push(job_at(3, Priority::Batch)).unwrap();
        let err = q.try_push(job_at(4, Priority::Batch)).unwrap_err();
        assert!(err.to_string().contains("batch headroom"), "got {err}");
        q.try_push(job_at(5, Priority::Normal)).expect("the reserved quarter admits normal");
        let err = q.try_push(job_at(6, Priority::Interactive)).unwrap_err();
        assert!(err.to_string().contains("queue full"), "hard capacity still binds: {err}");
        assert_eq!(q.stats().rejected, 2);
    }

    #[test]
    fn tiny_queues_still_admit_batch_work_when_idle() {
        let mut q = SubmissionQueue::new(1);
        q.try_push(job_at(1, Priority::Batch)).expect("batch capacity is never zero");
        assert!(q.try_push(job_at(2, Priority::Interactive)).is_err());
    }

    #[test]
    fn inherited_count_tracks_interleaved_pops_and_requeues() {
        let mut q = SubmissionQueue::new(3);
        q.try_push(job(1, None)).unwrap();
        q.try_push(job(2, None)).unwrap();
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        q.requeue_front(b);
        q.requeue_front(a); // front is now [a, b] — both inherited
        assert_eq!(q.stats().peak_depth, 2);
        assert_eq!(q.pop().unwrap().ticket, 1, "inherited jobs run first, LIFO among themselves");
        // One inherited job (b) still in the queue; a fresh admission counts
        // against the freed slots as usual.
        q.try_push(job(4, None)).unwrap();
        q.try_push(job(5, None)).unwrap();
        assert_eq!(q.stats().peak_depth, 2, "1 inherited + 2 fresh = 2 admitted slots");
        assert_eq!(q.stats().requeued, 2);
    }
}
