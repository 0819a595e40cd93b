//! Worker supervision: crash detection, restart with a fresh device, and
//! deadline-aware re-dispatch of the work a dead worker was holding.
//!
//! The supervisor is one thread watching the pool. Each tick (or sooner,
//! when a dying worker signals the `supervise` condvar) it:
//!
//! 1. **Reaps** finished worker threads. A clean exit is the drain path; a
//!    panicked exit carries a `WorkerCrashPanic` payload (or a foreign
//!    panic's message), and the supervisor bumps the slot's generation,
//!    records the death, and respawns the worker with a fresh device.
//! 2. **Fences stuck workers**: a slot whose in-flight job has produced no
//!    heartbeat for `stuck_after_ms` is declared wedged — the generation
//!    bump turns the old worker into a zombie that discards its result,
//!    and a replacement takes over the slot.
//! 3. **Re-dispatches** the job a dead/stuck worker held: within the retry
//!    budget the job re-enters the queue front (after a deterministic,
//!    seed-jittered exponential backoff) with its original deadline;
//!    beyond the budget it is answered degraded from the CPU oracle — or,
//!    with `degraded_answers` off, failed with
//!    [`SuiteError::WorkerCrashed`](cdd_core::SuiteError).
//! 4. Runs the **brownout pass**: when every breaker is open,
//!    deadline-carrying jobs are pulled and answered degraded now rather
//!    than expiring worthlessly later.
//!
//! # Determinism
//!
//! Restart timing is wall-clock and varies run to run; *what* is computed
//! does not. The retry backoff is a pure function of `(config, request
//! seed, retry ordinal)` — see `retry_backoff_ms` — and the retry's
//! fault plan is derived the same way, so the attempt trajectory of a
//! request is independent of when the supervisor got around to it.
//! Degradation is deterministic for deadline-free workloads (the budget
//! exhaustion path); the deadline-dependent paths (backoff-won't-fit and
//! brownout) only ever touch deadline-carrying requests, which are outside
//! the deterministic namespace to begin with. See DESIGN.md §12.

use crate::queue::QueuedJob;
use crate::service::{
    publish_locked, serve_degraded, spawn_worker, ParkedJob, Shared, State,
};
use cdd_core::SuiteError;
use cuda_sim::FaultStats;
use std::any::Any;
use std::sync::{Arc, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Supervision policy: how deaths are detected and what happens to the
/// work they orphan.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Supervisor wake-up cadence, milliseconds (min 1).
    pub tick_ms: u64,
    /// Declare an in-flight worker stuck after this many milliseconds
    /// without a heartbeat; `0` disables the watchdog.
    pub stuck_after_ms: u64,
    /// Re-dispatches a crashed job may consume before the service stops
    /// retrying and degrades (or fails) it. `0` means crash once → degrade.
    pub retry_budget: u32,
    /// Base of the exponential retry backoff, milliseconds. Retry `r`
    /// waits `base · 2^(r-1)` plus jitter.
    pub backoff_base_ms: u64,
    /// Upper bound (exclusive) of the deterministic, request-seeded jitter
    /// added to each backoff; `0` disables jitter.
    pub backoff_jitter_ms: u64,
    /// Serve budget-exhausted and browned-out requests from the CPU
    /// oracle with `degraded: true` instead of failing them. The brownout
    /// pass runs only while this is on.
    pub degraded_answers: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            tick_ms: 2,
            stuck_after_ms: 30_000,
            retry_budget: 2,
            backoff_base_ms: 4,
            backoff_jitter_ms: 4,
            degraded_answers: true,
        }
    }
}

/// The payload a worker panics with when its device reports
/// [`SuiteError::DeviceLost`] — the supervisor downcasts it back out of
/// [`JoinHandle::join`]'s error.
#[derive(Debug)]
pub(crate) struct WorkerCrashPanic {
    /// Slot of the worker that died.
    pub device: usize,
    /// Human-readable cause (the `DeviceLost` detail).
    pub detail: String,
}

/// Install a process-global panic hook that stays silent for
/// [`WorkerCrashPanic`] payloads — injected worker crashes are simulated
/// events the supervisor handles, not programming errors worth a
/// backtrace on stderr — and delegates every other panic to the hook that
/// was installed before (idempotent; first caller wins).
pub(crate) fn install_quiet_crash_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<WorkerCrashPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Recover a human-readable cause from the panic payload of the worker on
/// `slot`: the structured [`WorkerCrashPanic`] detail when the worker died
/// the expected way, the message when some other code path panicked with a
/// string, and a fixed fallback otherwise.
fn crash_payload(slot: usize, payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<WorkerCrashPanic>() {
        Ok(crash) => {
            debug_assert_eq!(crash.device, slot, "a crash payload names the slot that died");
            crash.detail
        }
        Err(payload) => match payload.downcast::<String>() {
            Ok(msg) => *msg,
            Err(payload) => match payload.downcast::<&'static str>() {
                Ok(msg) => (*msg).to_string(),
                Err(_) => "worker panicked with a non-string payload".to_string(),
            },
        },
    }
}

/// Backoff before retry `retry` (1-based) of the request with seed
/// `request_seed`: exponential in the retry ordinal, plus a jitter drawn
/// from a SplitMix64-style mix of the seed and the ordinal. A pure
/// function of its arguments — never of the wall clock, the device or the
/// thread — so two runs of the same workload park every retried job for
/// the same duration.
pub(crate) fn retry_backoff_ms(cfg: &SupervisorConfig, request_seed: u64, retry: u32) -> u64 {
    let exp = cfg.backoff_base_ms.saturating_mul(1u64 << retry.saturating_sub(1).min(16));
    let jitter = if cfg.backoff_jitter_ms == 0 {
        0
    } else {
        let mut z = request_seed ^ 0xd1b54a32d192ed03u64.wrapping_mul(u64::from(retry));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) % cfg.backoff_jitter_ms
    };
    exp + jitter
}

/// The supervisor thread body. Owns every worker `JoinHandle`; holds the
/// state lock across each tick (ticks are short — reap/fence/requeue
/// book-keeping only, never a solve).
pub(crate) fn supervisor_loop(shared: &Arc<Shared>, mut workers: Vec<Option<JoinHandle<()>>>) {
    let cfg = shared.supervisor.clone();
    let mut st = shared.state.lock().expect("service state lock");
    loop {
        let now = shared.now_ms();

        // 1. Reap finished workers. `is_finished` keeps the join from
        // blocking the tick on a healthy, busy worker.
        for (slot, worker) in workers.iter_mut().enumerate() {
            if !worker.as_ref().is_some_and(|h| h.is_finished()) {
                continue;
            }
            let handle = worker.take().expect("checked is_some above");
            match handle.join() {
                // Clean exit: the drain path — leave the slot empty.
                Ok(()) => {}
                Err(payload) => {
                    let detail = crash_payload(slot, payload);
                    handle_worker_death(&mut st, shared, &cfg, slot, &detail, now);
                    let generation = st.slots[slot].generation;
                    *worker = Some(spawn_worker(shared, slot, generation));
                }
            }
        }

        // 2. Fence stuck workers: no heartbeat while a job is in flight.
        if cfg.stuck_after_ms > 0 {
            for (slot, worker) in workers.iter_mut().enumerate() {
                let stuck = {
                    let s = &st.slots[slot];
                    s.in_flight.is_some()
                        && now.saturating_sub(s.heartbeat_ms) >= cfg.stuck_after_ms
                };
                if !stuck {
                    continue;
                }
                let (job, generation) = {
                    let s = &mut st.slots[slot];
                    s.generation += 1;
                    s.stuck += 1;
                    s.restarts += 1;
                    s.breaker.record_failure(now);
                    (s.in_flight.take().expect("checked in_flight above"), s.generation)
                };
                let detail = format!(
                    "worker stuck: no heartbeat for {} ms (fenced at generation {generation})",
                    cfg.stuck_after_ms
                );
                redispatch_or_degrade(&mut st, shared, &cfg, slot, job, &detail, now);
                // Replace the handle; dropping the zombie's handle detaches
                // it — it will observe the generation bump and exit.
                *worker = Some(spawn_worker(shared, slot, generation));
            }
        }

        // 3. Un-park retries whose backoff elapsed — or all of them on
        // shutdown (the backoff is a wall-clock nicety; shutdown must not
        // strand a retry waiting it out).
        let mut i = 0;
        while i < st.parked.len() {
            if st.shutdown || st.parked[i].due_at <= Instant::now() {
                let parked = st.parked.swap_remove(i);
                st.queue.requeue_retry(parked.job);
                shared.work.notify_all();
            } else {
                i += 1;
            }
        }

        // 4. Brownout pass: answer deadline-carrying jobs degraded *now*
        // when waiting would be pointless because every breaker is open.
        // Deadline-free jobs are never browned out — they can afford to
        // wait, and keeping them queued keeps the deterministic namespace
        // clean.
        if cfg.degraded_answers
            && !st.slots.is_empty()
            && st.slots.iter().all(|s| s.breaker.state() == crate::breaker::BreakerState::Open)
        {
            for job in st.queue.extract_if(|j| j.request.deadline_ms.is_some()) {
                serve_degraded(&mut st, job, true);
                shared.done.notify_all();
            }
        }

        if st.drained() {
            drop(st);
            shared.work.notify_all();
            for handle in workers.into_iter().flatten() {
                let _ = handle.join();
            }
            return;
        }
        let (guard, _) = shared
            .supervise
            .wait_timeout(st, Duration::from_millis(cfg.tick_ms.max(1)))
            .expect("service state lock");
        st = guard;
    }
}

/// Book-keep one worker death: fence the slot, trip the breaker's failure
/// path, count the crash into the slot's fault ledger (a failed run never
/// returns its `FaultStats`, so the device-side count is re-created here),
/// and re-dispatch the job the worker was holding, if any.
fn handle_worker_death(
    st: &mut State,
    shared: &Arc<Shared>,
    cfg: &SupervisorConfig,
    slot: usize,
    detail: &str,
    now: u64,
) {
    let job = {
        let s = &mut st.slots[slot];
        s.generation += 1;
        s.restarts += 1;
        s.breaker.record_failure(now);
        s.usage.faults += FaultStats { worker_crashes: 1, ..FaultStats::default() };
        s.in_flight.take()
    };
    if let Some(job) = job {
        redispatch_or_degrade(st, shared, cfg, slot, job, detail, now);
    }
}

/// Decide what happens to a job orphaned by a worker death: another
/// attempt (immediately or parked behind its deterministic backoff) while
/// the retry budget and the deadline allow it; a degraded CPU-oracle
/// answer — or a structured [`SuiteError::WorkerCrashed`] failure — once
/// they don't.
fn redispatch_or_degrade(
    st: &mut State,
    shared: &Arc<Shared>,
    cfg: &SupervisorConfig,
    slot: usize,
    mut job: QueuedJob,
    detail: &str,
    _now: u64,
) {
    if job.retries < cfg.retry_budget {
        let next_retry = job.retries + 1;
        let delay = retry_backoff_ms(cfg, job.request.seed, next_retry);
        // Deadline-aware: a backoff that outlives the deadline would turn
        // the retry into a guaranteed expiry — degrade instead.
        let fits_deadline = match job.request.deadline_ms {
            Some(ms) => {
                job.submitted.elapsed().as_millis() + u128::from(delay) < u128::from(ms)
            }
            None => true,
        };
        if fits_deadline {
            job.retries = next_retry;
            if job.request.trace.is_some_and(|t| t.sampled) {
                job.hops.push(
                    cdd_metrics::FlightHop::new("supervisor", "retry", 0.0, 0.0)
                        .with_detail("retry", next_retry)
                        .with_detail("backoff_ms", delay),
                );
            }
            st.retries_scheduled += 1;
            if delay == 0 || st.shutdown {
                st.queue.requeue_retry(job);
                shared.work.notify_all();
            } else {
                st.parked
                    .push(ParkedJob { due_at: Instant::now() + Duration::from_millis(delay), job });
            }
            return;
        }
    }
    if cfg.degraded_answers {
        serve_degraded(st, job, false);
    } else {
        publish_locked(
            st,
            job,
            Some(slot),
            Err(SuiteError::worker_crashed(slot, detail.to_string())),
            false,
        );
    }
    shared.done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(base: u64, jitter: u64) -> SupervisorConfig {
        SupervisorConfig {
            backoff_base_ms: base,
            backoff_jitter_ms: jitter,
            ..SupervisorConfig::default()
        }
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let c = cfg(8, 0);
        for retry in 1..=5u32 {
            let a = retry_backoff_ms(&c, 42, retry);
            let b = retry_backoff_ms(&c, 42, retry);
            assert_eq!(a, b, "pure in (config, seed, retry)");
            assert_eq!(a, 8 << (retry - 1), "exponential with zero jitter");
        }
    }

    #[test]
    fn jitter_stays_in_range_and_varies_by_seed() {
        let c = cfg(10, 7);
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let d = retry_backoff_ms(&c, seed, 1);
            assert!((10..17).contains(&d), "base 10 + jitter in [0,7): got {d}");
            distinct.insert(d);
        }
        assert!(distinct.len() > 1, "jitter actually spreads the backoffs");
    }

    #[test]
    fn huge_retry_ordinals_cannot_overflow() {
        let c = cfg(u64::MAX / 2, 0);
        assert_eq!(retry_backoff_ms(&c, 1, u32::MAX), u64::MAX, "saturates, never panics");
    }

    #[test]
    fn crash_payload_downcast_chain() {
        let structured: Box<dyn Any + Send> =
            Box::new(WorkerCrashPanic { device: 3, detail: "device lost: injected".into() });
        assert_eq!(crash_payload(3, structured), "device lost: injected");
        let string: Box<dyn Any + Send> = Box::new("plain panic".to_string());
        assert_eq!(crash_payload(0, string), "plain panic");
        let static_str: Box<dyn Any + Send> = Box::new("static panic");
        assert_eq!(crash_payload(0, static_str), "static panic");
        let opaque: Box<dyn Any + Send> = Box::new(17usize);
        assert_eq!(crash_payload(0, opaque), "worker panicked with a non-string payload");
    }
}
