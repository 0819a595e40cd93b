//! The solver service: a bounded submission queue feeding a pool of
//! simulated GPU devices through work stealing, fronted by a
//! content-addressed solution cache and watched over by a supervisor.
//!
//! # Architecture
//!
//! ```text
//! submit() ──► cache lookup ──hit──► answered immediately
//!                  │miss
//!                  ├─► identical job queued/in flight? ──► coalesce onto it
//!                  │no
//!                  └─► bounded FIFO queue ──full──► SuiteError::Rejected
//!                            │
//!            (work stealing: each idle device worker pops the next job,
//!             gated by that device's circuit breaker)
//!                            │
//!          device 0 ─ device 1 ─ … ─ device N-1   (one in-flight run each)
//!                │ DeviceLost            │ completion: cache insert +
//!                ▼                       ▼ one reply per ticket
//!          worker panics ──► supervisor reaps, restarts the worker with a
//!          fresh device, and re-dispatches the in-flight job (bounded
//!          deterministic retry/backoff) or serves it degraded from the
//!          CPU oracle (`cdd_core::degraded_outcome`)
//! ```
//!
//! The resilience pieces live in sibling modules: [`crate::supervisor`]
//! (worker death detection, restart, retry/park/degrade policy) and
//! [`crate::breaker`] (the per-device `closed → open → half-open` circuit
//! breaker). Mutable per-device state — usage, breaker, trace, in-flight
//! job — lives in `SlotState` inside the shared state, **not** in the
//! worker thread, so it survives worker crashes and restarts.
//!
//! # Answering a ticket
//!
//! Every accepted ticket is answered exactly once, through one function
//! (`State::deliver`): the cache hit in `submit_with`, a finished or
//! degraded solve and its followers, and an expiry before dispatch all
//! end there. Delivery runs the reply the submitter handed to
//! [`SolverService::submit_with`], with the service's state locked; no
//! thread parks on a shared condvar waiting for its ticket.
//! [`SolverService::submit`] is `submit_with` plus a one-slot channel,
//! and [`SolverService::wait`] receives on it.
//!
//! # Determinism contract
//!
//! Which *device* runs a request, how long it waits and how often its
//! worker was restarted are wall-clock matters and vary run to run. The
//! request's *fitness and degraded flag* do not: the pipelines are
//! deterministic in `(instance, algorithm, iterations, seed)`, a device's
//! per-request fault plan is derived purely from its base plan, the request
//! seed and the retry ordinal ([`DeviceHandle::request_plan_retry`] —
//! device id deliberately excluded), and a degraded answer is pure in the
//! instance. Whether attempt `r` of a request crashes is decided by plan
//! `r` alone, so the attempt trajectory — and therefore the final
//! `(fitness, degraded)` pair — is routing- and timing-independent for
//! deadline-free workloads. Per-device utilization, latency, the
//! hit/coalesced split and breaker state *timing* are not part of the
//! contract. See DESIGN.md §12.

use crate::breaker::{BreakerConfig, BreakerStats, CircuitBreaker};
use crate::cache::{CacheStats, SolutionCache};
use crate::queue::{QueueStats, QueuedJob, SubmissionQueue};
use crate::supervisor::{
    install_quiet_crash_hook, supervisor_loop, SupervisorConfig, WorkerCrashPanic,
};
use cdd_core::{Priority, SolveOutcome, SolveRequest, SuiteError, TraceContext};
use cdd_gpu::{
    counter_trace_events, run_gpu_solve, Backend, ConvergenceSummary, GpuSolveSpec, RecoveryPolicy,
};
use cdd_metrics::trace::{TraceEvent, TraceSink};
use cdd_metrics::{latency_ms_buckets, FlightHop, FlightRecord, MetricsRegistry};
use cuda_sim::{
    timeline_trace_events, DeviceHandle, DeviceSpec, DeviceUsage, FaultPlan, FaultStats,
    TelemetryConfig,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Static configuration of a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Pool size (how many simulated devices run concurrently; min 1).
    pub devices: usize,
    /// Submission-queue capacity; a full queue rejects new requests.
    pub queue_capacity: usize,
    /// Solution-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Grid size of every dispatched solve.
    pub blocks: usize,
    /// Block size of every dispatched solve.
    pub block_size: usize,
    /// Hardware description shared by all pool devices.
    pub device_spec: DeviceSpec,
    /// Execution backend for clean production requests (DESIGN.md §16).
    /// Sim-only capabilities override it per request: a run that carries an
    /// *active* fault plan, convergence telemetry or trace capture always
    /// routes to [`Backend::Sim`], whatever is configured here — chaos,
    /// replay and verification traffic never silently loses its
    /// instrumentation. The default is [`Backend::Sim`]; production
    /// deployments opt into [`Backend::Native`] for wall-clock speed (the
    /// outcome is byte-identical either way, see `cdd_gpu`'s
    /// `backend_parity` suite).
    pub backend: Backend,
    /// Base fault plan installed on *every* device (`None` = clean fleet).
    pub fault: Option<FaultPlan>,
    /// Per-device overrides: `(device id, plan)` — takes precedence over
    /// `fault` for that device, making single-device failure scenarios
    /// expressible.
    pub device_faults: Vec<(usize, FaultPlan)>,
    /// Retry/re-attempt/fallback policy applied to every solve.
    pub recovery: RecoveryPolicy,
    /// Record every run's profiler timeline as Chrome trace events (one
    /// track per device, timestamps on the modeled clock). Off by default —
    /// traces grow with the workload.
    pub capture_trace: bool,
    /// Convergence-telemetry policy applied to every dispatched solve
    /// (disabled by default). Enabling it adds `service_convergence_*`
    /// counters to the report and, with `capture_trace`, best-so-far
    /// counter tracks to the Chrome trace; it never changes a result.
    pub telemetry: TelemetryConfig,
    /// Supervision policy: worker restart, retry budget, deterministic
    /// backoff and graceful degradation (see [`SupervisorConfig`]).
    pub supervisor: SupervisorConfig,
    /// Per-device circuit-breaker tuning (see [`BreakerConfig`]).
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            devices: 2,
            queue_capacity: 64,
            cache_capacity: 256,
            blocks: 1,
            block_size: 64,
            device_spec: DeviceSpec::gt560m(),
            backend: Backend::default(),
            fault: None,
            device_faults: Vec::new(),
            recovery: RecoveryPolicy::default(),
            capture_trace: false,
            telemetry: TelemetryConfig::disabled(),
            supervisor: SupervisorConfig::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Fleet-wide convergence tallies, summed over every request a device ran.
/// Each request's summary is derived from its deterministic trace, so the
/// fleet totals are routing-independent — they qualify for the `service_`
/// metric namespace.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConvergenceTotals {
    /// Requests that produced a convergence trace.
    requests: u64,
    /// Generation samples recorded across those traces.
    samples: u64,
    /// Chains whose best-so-far had already plateaued by mid-run.
    stalled_chains: u64,
    /// Requests whose trace ended in a diversity collapse.
    collapsed: u64,
}

impl ConvergenceTotals {
    fn absorb(&mut self, other: ConvergenceTotals) {
        self.requests += other.requests;
        self.samples += other.samples;
        self.stalled_chains += other.stalled_chains;
        self.collapsed += other.collapsed;
    }

    fn record(&mut self, summary: &ConvergenceSummary) {
        self.requests += 1;
        self.samples += summary.samples as u64;
        // The fraction was computed as count/chains; recover the count.
        self.stalled_chains +=
            (summary.stalled_chain_fraction * summary.chains as f64).round() as u64;
        self.collapsed += u64::from(summary.diversity_collapse_gen.is_some());
    }
}

/// The answer to one submitted request.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The ticket this outcome fulfils.
    pub ticket: u64,
    /// Device that did the work (`None` when answered from the cache,
    /// expired before dispatch or served degraded; coalesced requests
    /// report the device that ran the shared solve).
    pub device: Option<usize>,
    /// Milliseconds from submission to fulfilment.
    pub wall_ms: f64,
    /// The solve result, or why it was not produced.
    pub result: Result<SolveOutcome, SuiteError>,
    /// Per-hop flight record of this request's path through the service.
    /// `None` unless the request carried a sampled [`TraceContext`] —
    /// untraced requests are book-kept identically to a build without
    /// tracing. The record's `node` field is left empty here; the embedding
    /// (e.g. `cdd-node`) stamps its own label before shipping it.
    pub flight: Option<FlightRecord>,
}

/// How an accepted ticket's answer reaches its submitter; see
/// [`SolverService::submit_with`].
type Reply = Box<dyn FnOnce(RequestOutcome) + Send>;

/// A ticket from [`SolverService::submit`]: its number plus the channel
/// its one answer arrives on. Hand it to [`SolverService::wait`].
/// Dropping it unanswered is harmless: the answer is discarded.
#[derive(Debug)]
pub struct Ticket {
    /// The ticket number (the answer's [`RequestOutcome::ticket`]).
    pub id: u64,
    rx: mpsc::Receiver<RequestOutcome>,
}

/// Per-device section of the final report.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Pool device id.
    pub id: usize,
    /// Accumulated usage (modeled time, run counts, injected faults).
    /// Survives worker restarts — this is the *slot's* usage, not one
    /// worker incarnation's.
    pub usage: DeviceUsage,
    /// Busy-wall-seconds / service-wall-seconds.
    pub utilization: f64,
    /// Worker restarts the supervisor performed on this slot (crash
    /// reaps + stuck fences).
    pub restarts: u64,
    /// What this device's circuit breaker did.
    pub breaker: BreakerStats,
}

/// Counters and per-device usage returned by [`SolverService::shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Wall-clock lifetime of the service, seconds.
    pub wall_seconds: f64,
    /// Tickets accepted (admitted, coalesced or cache-answered).
    pub submitted: u64,
    /// Tickets answered with a solve outcome.
    pub completed: u64,
    /// Tickets answered with a device/pipeline error.
    pub failed: u64,
    /// Tickets expired before dispatch.
    pub expired: u64,
    /// Tickets answered from the CPU oracle with `degraded: true`
    /// (retry budget exhausted, or pulled by a brownout pass). Degraded
    /// answers count toward `completed` as well.
    pub degraded: u64,
    /// Submissions refused by admission control.
    pub rejected: u64,
    /// Crashed jobs re-admitted by the supervisor for another attempt.
    pub retried: u64,
    /// Worker restarts across the fleet (crash reaps + stuck fences).
    pub restarts: u64,
    /// Queue depth/admission counters.
    pub queue: QueueStats,
    /// Cache hit/miss/eviction counters.
    pub cache: CacheStats,
    /// Per-device usage, utilization, restarts and breaker activity.
    pub devices: Vec<DeviceReport>,
    /// Metrics snapshot of the whole service lifetime. Series under the
    /// `service_` prefix are timing-independent for a deterministic
    /// workload (no deadline expiries, no capacity evictions): they count
    /// *what* was computed, which the determinism contract fixes, not
    /// *where or when*, which it does not. The `timing_` and `device_`
    /// prefixes carry the wall-clock-dependent remainder (latency
    /// histograms, the hit/coalesce split, per-device placement). One
    /// carve-out: `service_breaker_*` totals are deterministic only in the
    /// clean case (all zero) — under chaos, per-slot consecutive-failure
    /// streaks depend on placement, so the chaos CI job byte-compares the
    /// per-request CSV instead of these series.
    pub metrics: MetricsRegistry,
    /// Chrome trace of every run's profiler timeline, one track per device
    /// on the modeled clock. Empty unless [`ServiceConfig::capture_trace`]
    /// was set.
    pub trace: TraceSink,
}

/// Live counters mid-flight — the probe-sized view of a running service
/// (see [`SolverService::snapshot`]). Everything here is a monotone count
/// or an instantaneous depth; the full per-device/metrics report still
/// requires [`SolverService::shutdown`].
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    /// Tickets accepted so far.
    pub submitted: u64,
    /// Tickets answered with a solve outcome so far.
    pub completed: u64,
    /// Tickets answered with an error so far.
    pub failed: u64,
    /// Tickets expired before dispatch so far.
    pub expired: u64,
    /// Tickets answered degraded so far.
    pub degraded: u64,
    /// Submissions refused by admission control so far.
    pub rejected: u64,
    /// Crashed jobs re-admitted for another attempt so far.
    pub retried: u64,
    /// Worker restarts across the fleet so far.
    pub restarts: u64,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Cache hit/miss/eviction counters so far.
    pub cache: CacheStats,
}

/// A request coalesced onto an identical queued or in-flight primary.
struct Follower {
    ticket: u64,
    submitted: Instant,
    deadline_ms: Option<u64>,
    /// The follower's own trace context — a coalesced request keeps its own
    /// trace id even though the primary does the work.
    trace: Option<TraceContext>,
}

/// Whether a request asked for hop spans: it carries a sampled trace
/// context. Everything flight-record-shaped in this module is gated on
/// this, so untraced runs take the exact pre-tracing code path.
fn traced(request: &SolveRequest) -> bool {
    request.trace.is_some_and(|t| t.sampled)
}

/// Start a flight record for a sampled request, or `None`. The `node`
/// label is stamped by the embedding.
fn start_flight(trace: Option<TraceContext>) -> Option<FlightRecord> {
    trace.filter(|t| t.sampled).map(|t| FlightRecord::new(t.trace_id, ""))
}

/// Everything that belongs to one device *slot* and must survive worker
/// crashes: the worker thread is disposable, this is not.
pub(crate) struct SlotState {
    /// Fencing token: bumped on every restart. A worker whose generation
    /// no longer matches is a zombie — it discards its result and exits.
    pub(crate) generation: u64,
    /// The job this slot is currently running, if any. Taken by the
    /// supervisor on crash/stuck so the job can be re-dispatched.
    pub(crate) in_flight: Option<QueuedJob>,
    /// Logical-clock ms (service epoch) of the worker's last sign of life
    /// (job pop or completion). Only meaningful while `in_flight` is some.
    pub(crate) heartbeat_ms: u64,
    /// This device's circuit breaker. Survives restarts deliberately — a
    /// crashing device should not get a fresh breaker with every worker.
    pub(crate) breaker: CircuitBreaker,
    /// Accumulated usage across all worker incarnations.
    pub(crate) usage: DeviceUsage,
    /// This device's trace track (when capture is on).
    pub(crate) trace: Vec<TraceEvent>,
    pub(crate) trace_clock_us: f64,
    /// Convergence tallies across all worker incarnations.
    pub(crate) convergence: ConvergenceTotals,
    /// Worker restarts on this slot (crash reaps + stuck fences).
    pub(crate) restarts: u64,
    /// Stuck fences among those restarts.
    pub(crate) stuck: u64,
}

/// A retried job waiting out its backoff before re-entering the queue.
pub(crate) struct ParkedJob {
    pub(crate) due_at: Instant,
    pub(crate) job: QueuedJob,
}

pub(crate) struct State {
    pub(crate) queue: SubmissionQueue,
    /// `content key → followers`; a key is present exactly while a primary
    /// with that key is queued or in flight.
    followers: HashMap<u64, Vec<Follower>>,
    /// `ticket → reply` for every accepted ticket not yet answered.
    replies: HashMap<u64, Reply>,
    cache: SolutionCache,
    /// Live registry: per-request latency observations land here as they
    /// happen; the lifetime counters are folded in once at shutdown.
    metrics: MetricsRegistry,
    submitted: u64,
    completed: u64,
    failed: u64,
    expired: u64,
    /// Tickets answered degraded (subset of `completed`).
    degraded: u64,
    /// Degraded answers that came from a brownout pass specifically.
    degraded_brownout: u64,
    /// Retry re-dispatches the supervisor scheduled (parked or immediate).
    pub(crate) retries_scheduled: u64,
    /// Requests dispatched per execution backend, indexed `[sim, native]`.
    /// Deterministic on uniform fleets (routing is config- and
    /// capability-driven); on mixed `device_faults` fleets a request's
    /// backend follows the slot race, the same carve-out as
    /// `service_breaker_*`.
    backend_requests: [u64; 2],
    /// Accepted tickets per tenant (BTreeMap: deterministic fold order).
    tenant_submitted: BTreeMap<String, u64>,
    /// Accepted tickets per priority class, indexed by `Priority::as_u8`.
    priority_submitted: [u64; 3],
    next_ticket: u64,
    pub(crate) shutdown: bool,
    pub(crate) slots: Vec<SlotState>,
    pub(crate) parked: Vec<ParkedJob>,
}

impl State {
    /// Accept `ticket`: keep its reply until [`deliver`](Self::deliver)
    /// and book-keep it against its tenant and priority class. Pure counts
    /// of admitted work — they qualify for the `service_` metric namespace.
    fn accept(&mut self, ticket: u64, tenant: &str, priority: Priority, reply: Reply) {
        self.next_ticket = ticket + 1;
        self.replies.insert(ticket, reply);
        self.submitted += 1;
        *self.tenant_submitted.entry(tenant.to_string()).or_insert(0) += 1;
        self.priority_submitted[priority.as_u8() as usize] += 1;
    }

    /// Answer a ticket: the one path every outcome takes. Records the
    /// submission→answer latency (wall-clock, hence the `timing_` prefix)
    /// and runs the ticket's reply, which leaves the table, so no ticket is
    /// answered twice.
    fn deliver(&mut self, outcome: RequestOutcome) {
        self.metrics.observe("timing_request_wall_ms", &[], outcome.wall_ms, latency_ms_buckets());
        let reply = self.replies.remove(&outcome.ticket).expect("a ticket is answered once");
        reply(outcome);
    }

    /// Nothing left to run: shutdown was requested, the queue and the
    /// parking lot are empty, and no slot has a job in flight. Workers and
    /// the supervisor exit exactly when this holds.
    pub(crate) fn drained(&self) -> bool {
        self.shutdown
            && self.queue.depth() == 0
            && self.parked.is_empty()
            && self.slots.iter().all(|s| s.in_flight.is_none())
    }
}

pub(crate) struct Shared {
    pub(crate) state: Mutex<State>,
    /// Signalled when work arrives or shutdown begins (workers wait here).
    pub(crate) work: Condvar,
    /// Signalled to wake the supervisor early (worker crash imminent).
    pub(crate) supervise: Condvar,
    blocks: usize,
    block_size: usize,
    recovery: RecoveryPolicy,
    capture_trace: bool,
    telemetry: TelemetryConfig,
    /// Backend for clean requests; sim-only capabilities override it.
    backend: Backend,
    /// Hardware description shared by all pool devices (restarts clone it).
    device_spec: DeviceSpec,
    /// Per-slot base fault plan, resolved once at start — a restarted
    /// worker gets a fresh device with the *same* base plan.
    slot_plans: Vec<Option<FaultPlan>>,
    pub(crate) supervisor: SupervisorConfig,
    /// Origin of the service's logical millisecond clock (`now_ms`).
    epoch: Instant,
}

impl Shared {
    /// Milliseconds since the service started — the one monotone clock the
    /// breakers, heartbeats and stuck checks all share.
    pub(crate) fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }
}

fn elapsed_ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// How long a breaker-gated worker naps before re-checking `allow` (the
/// condvar has no "breaker re-opened" edge to signal on).
const BREAKER_RECHECK_MS: u64 = 10;

/// A running solver service. Submit requests with
/// [`submit_with`](Self::submit_with), which hands each answer to a reply
/// of the caller's, or with [`submit`](Self::submit), whose [`Ticket`]
/// [`wait`](Self::wait) blocks on (or the blocking [`solve`](Self::solve),
/// which does both). Finish with [`shutdown`](Self::shutdown) to drain the
/// queue and obtain the [`ServiceReport`].
pub struct SolverService {
    shared: Arc<Shared>,
    /// The supervisor thread owns the worker handles; joining it joins the
    /// whole pool.
    supervisor: Option<JoinHandle<()>>,
    started: Instant,
}

impl SolverService {
    /// Start the worker pool (one thread per device) and the supervisor.
    pub fn start(config: ServiceConfig) -> Self {
        let devices = config.devices.max(1);
        let slot_plans: Vec<Option<FaultPlan>> = (0..devices)
            .map(|id| {
                config
                    .device_faults
                    .iter()
                    .find(|(dev, _)| *dev == id)
                    .map(|(_, p)| p.clone())
                    .or_else(|| config.fault.clone())
            })
            .collect();
        let slots = (0..devices)
            .map(|_| SlotState {
                generation: 0,
                in_flight: None,
                heartbeat_ms: 0,
                breaker: CircuitBreaker::new(config.breaker.clone()),
                usage: DeviceUsage::default(),
                trace: Vec::new(),
                trace_clock_us: 0.0,
                convergence: ConvergenceTotals::default(),
                restarts: 0,
                stuck: 0,
            })
            .collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: SubmissionQueue::new(config.queue_capacity),
                followers: HashMap::new(),
                replies: HashMap::new(),
                cache: SolutionCache::new(config.cache_capacity),
                metrics: MetricsRegistry::new(),
                submitted: 0,
                completed: 0,
                failed: 0,
                expired: 0,
                degraded: 0,
                degraded_brownout: 0,
                retries_scheduled: 0,
                backend_requests: [0; 2],
                tenant_submitted: BTreeMap::new(),
                priority_submitted: [0; 3],
                next_ticket: 0,
                shutdown: false,
                slots,
                parked: Vec::new(),
            }),
            work: Condvar::new(),
            supervise: Condvar::new(),
            blocks: config.blocks,
            block_size: config.block_size,
            recovery: config.recovery.clone(),
            capture_trace: config.capture_trace,
            telemetry: config.telemetry,
            backend: config.backend,
            device_spec: config.device_spec.clone(),
            slot_plans,
            supervisor: config.supervisor.clone(),
            epoch: Instant::now(),
        });
        install_quiet_crash_hook();
        let workers: Vec<Option<JoinHandle<()>>> =
            (0..devices).map(|id| Some(spawn_worker(&shared, id, 0))).collect();
        let sup_shared = Arc::clone(&shared);
        let supervisor = thread::Builder::new()
            .name("cdd-supervisor".into())
            .spawn(move || supervisor_loop(&sup_shared, workers))
            .expect("supervisor thread spawns");
        SolverService { shared, supervisor: Some(supervisor), started: Instant::now() }
    }

    /// Submit a request whose answer is handed to `reply`. Returns the
    /// ticket number, or [`SuiteError::Rejected`] immediately when the queue
    /// is full or the service is shutting down. Never blocks on a full
    /// queue.
    ///
    /// An accepted ticket's `reply` runs exactly once, with its
    /// [`RequestOutcome`]: inside this call for a cache hit, otherwise on
    /// whichever service thread answers the ticket. It runs with the
    /// service's state locked, so it must only hand the outcome on (send it
    /// on a channel, say): it must never block, and never call back into
    /// the service. A rejected submission drops `reply` without running it.
    pub fn submit_with(
        &self,
        request: SolveRequest,
        reply: impl FnOnce(RequestOutcome) + Send + 'static,
    ) -> Result<u64, SuiteError> {
        let key = request.content_key();
        let reply: Reply = Box::new(reply);
        let mut st = self.shared.state.lock().expect("service state lock");
        if st.shutdown {
            return Err(SuiteError::rejected("service is shutting down"));
        }
        let ticket = st.next_ticket;

        // 1. Completed identical solve in the cache?
        if let Some(outcome) = st.cache.lookup(key) {
            st.accept(ticket, &request.tenant, request.priority, reply);
            st.completed += 1;
            let flight = start_flight(request.trace).map(|mut f| {
                f.hops.push(FlightHop::new("service", "cache_hit", 0.0, 0.0));
                f
            });
            st.deliver(RequestOutcome {
                ticket,
                device: None,
                wall_ms: 0.0,
                result: Ok(outcome),
                flight,
            });
            return Ok(ticket);
        }

        // 2. Identical solve queued or in flight? Ride along.
        if let Some(followers) = st.followers.get_mut(&key) {
            followers.push(Follower {
                ticket,
                submitted: Instant::now(),
                deadline_ms: request.deadline_ms,
                trace: request.trace,
            });
            st.cache.note_coalesced();
            st.accept(ticket, &request.tenant, request.priority, reply);
            return Ok(ticket);
        }

        // 3. Fresh dispatch — subject to admission control. Wake every
        // worker: with breakers in play, `notify_one` could land on a
        // worker whose breaker is open, leaving the job waiting.
        let (tenant, priority) = (request.tenant.clone(), request.priority);
        st.queue.try_push(QueuedJob {
            ticket,
            request,
            key,
            submitted: Instant::now(),
            retries: 0,
            hops: Vec::new(),
        })?;
        st.cache.note_miss();
        st.followers.insert(key, Vec::new());
        st.accept(ticket, &tenant, priority, reply);
        self.shared.work.notify_all();
        Ok(ticket)
    }

    /// Submit a request. Returns a [`Ticket`] to [`wait`](Self::wait) on,
    /// or [`SuiteError::Rejected`] immediately when the queue is full or
    /// the service is shutting down. Never blocks on a full queue.
    pub fn submit(&self, request: SolveRequest) -> Result<Ticket, SuiteError> {
        let (tx, rx) = mpsc::sync_channel(1);
        let id = self.submit_with(request, move |outcome| {
            // The ticket may have been dropped; its answer then goes nowhere.
            let _ = tx.send(outcome);
        })?;
        Ok(Ticket { id, rx })
    }

    /// Block until the ticket (from [`submit`](Self::submit)) is answered.
    pub fn wait(&self, ticket: Ticket) -> RequestOutcome {
        ticket.rx.recv().expect("the service answers every accepted ticket")
    }

    /// Submit and wait: the synchronous client API.
    pub fn solve(&self, request: SolveRequest) -> Result<SolveOutcome, SuiteError> {
        let ticket = self.submit(request)?;
        self.wait(ticket).result
    }

    /// Begin a graceful shutdown from a shared reference: new submissions
    /// are rejected from this call on, while queued and parked work keeps
    /// draining. Needed by embeddings that share the service behind an
    /// `Arc` (the `cdd-node` front door begins draining from a connection
    /// thread, then the owner calls [`shutdown`](Self::shutdown) to join
    /// and collect the report). Idempotent.
    pub fn begin_shutdown(&self) {
        let mut st = self.shared.state.lock().expect("service state lock");
        st.shutdown = true;
        self.shared.work.notify_all();
        self.shared.supervise.notify_all();
    }

    /// Whether every accepted ticket has been answered (no queued, parked
    /// or in-flight work). With [`begin_shutdown`](Self::begin_shutdown)
    /// already called, `idle() == true` means the workers are exiting — the
    /// deterministic drain point an embedding waits for before restarting.
    pub fn idle(&self) -> bool {
        let st = self.shared.state.lock().expect("service state lock");
        st.queue.depth() == 0
            && st.parked.is_empty()
            && st.slots.iter().all(|s| s.in_flight.is_none())
    }

    /// Live counters for health/stats probes: cheap, lock-scoped, callable
    /// from any thread while the service runs (the full [`ServiceReport`]
    /// only exists at shutdown).
    pub fn snapshot(&self) -> ServiceSnapshot {
        let st = self.shared.state.lock().expect("service state lock");
        ServiceSnapshot {
            submitted: st.submitted,
            completed: st.completed,
            failed: st.failed,
            expired: st.expired,
            degraded: st.degraded,
            rejected: st.queue.stats().rejected,
            retried: st.queue.stats().retried,
            restarts: st.slots.iter().map(|s| s.restarts).sum(),
            queue_depth: st.queue.depth(),
            cache: st.cache.stats().clone(),
        }
    }

    /// A full [`MetricsRegistry`] snapshot of the service *so far*: the
    /// live per-request observations plus the lifetime counters folded in
    /// exactly as [`shutdown`](Self::shutdown) would fold them. Unlike
    /// `shutdown` this is non-destructive and callable mid-flight — it is
    /// what a `Stats { full: true }` probe ships over the wire. The
    /// `service_` determinism contract applies to a *drained* snapshot
    /// (every accepted ticket answered); a mid-drain snapshot is merely a
    /// consistent point-in-time view.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let st = self.shared.state.lock().expect("service state lock");
        let mut metrics = st.metrics.clone();
        let queue = st.queue.stats().clone();
        let cache = st.cache.stats().clone();
        let convergence = self.shared.telemetry.enabled().then(|| {
            let mut totals = ConvergenceTotals::default();
            for s in &st.slots {
                totals.absorb(s.convergence);
            }
            totals
        });
        let native = self.shared.backend == Backend::Native;
        fold_final_metrics(&mut metrics, &st, &queue, &cache, convergence, native, wall_seconds);
        metrics
    }

    /// Stop accepting work, drain the queue (parked retries re-enter
    /// immediately — shutdown never strands a retry in its backoff), join
    /// the supervisor and the workers, and report.
    pub fn shutdown(mut self) -> ServiceReport {
        self.begin_shutdown();
        if let Some(sup) = self.supervisor.take() {
            let _ = sup.join();
        }
        let wall_seconds = self.started.elapsed().as_secs_f64();
        let mut st = self.shared.state.lock().expect("service state lock");

        let mut metrics = std::mem::take(&mut st.metrics);
        let queue = st.queue.stats().clone();
        let cache = st.cache.stats().clone();
        let convergence = self.shared.telemetry.enabled().then(|| {
            let mut totals = ConvergenceTotals::default();
            for s in &st.slots {
                totals.absorb(s.convergence);
            }
            totals
        });
        let native = self.shared.backend == Backend::Native;
        fold_final_metrics(&mut metrics, &st, &queue, &cache, convergence, native, wall_seconds);

        let mut trace = TraceSink::new();
        if self.shared.capture_trace {
            trace.name_process(0, "cdd-service");
            // One named track per device, present even when a device never
            // ran a request — the Perfetto view shows the whole fleet.
            for id in 0..st.slots.len() {
                trace.name_track(0, id as u32, &format!("device {id}"));
            }
            for s in &st.slots {
                trace.extend(s.trace.iter().cloned());
            }
        }

        ServiceReport {
            wall_seconds,
            submitted: st.submitted,
            completed: st.completed,
            failed: st.failed,
            expired: st.expired,
            degraded: st.degraded,
            rejected: queue.rejected,
            retried: queue.retried,
            restarts: st.slots.iter().map(|s| s.restarts).sum(),
            queue,
            cache,
            devices: st
                .slots
                .iter()
                .enumerate()
                .map(|(id, s)| DeviceReport {
                    id,
                    utilization: s.usage.utilization(wall_seconds),
                    usage: s.usage.clone(),
                    restarts: s.restarts,
                    breaker: s.breaker.stats,
                })
                .collect(),
            metrics,
            trace,
        }
    }
}

/// Fold the service's lifetime counters into the registry at shutdown.
///
/// Naming contract: the `service_` prefix carries only series that are
/// reproducible across runs of a deterministic workload (pure u64 counts of
/// admitted/answered work and injected faults — per-request fault plans are
/// routing-independent, so the fleet-wide totals don't depend on placement).
/// Anything shaped by the wall clock — latency, the hit-vs-coalesced split,
/// per-device placement and utilization — lives under `timing_` or
/// `device_` instead, so a consumer can byte-compare the deterministic
/// subset with `grep '^service_'`. One carve-out, documented on
/// [`ServiceReport::metrics`]: `service_breaker_*` is deterministic only
/// when it is all zero (clean fleet) — breaker trips count *consecutive*
/// per-slot failures, which depend on placement under chaos.
/// The deterministic description table behind the `# HELP` lines: one
/// entry per core series, applied on every fold so local renders and
/// wire-shipped registry snapshots carry identical help text. Merging
/// registries keeps descriptions deterministic (lexicographic-min wins on
/// conflict), so fleet-aggregated renders are byte-stable too.
fn describe_service_metrics(metrics: &mut MetricsRegistry) {
    const HELP: &[(&str, &str)] = &[
        ("service_requests_submitted_total", "Tickets accepted (admitted, coalesced or cached)."),
        ("service_requests_completed_total", "Tickets answered with a solve outcome."),
        ("service_requests_failed_total", "Tickets answered with a device or pipeline error."),
        ("service_requests_expired_total", "Tickets expired before dispatch."),
        ("service_degraded_total", "Tickets answered from the CPU oracle with degraded=true."),
        ("service_degraded_brownout_total", "Degraded answers pulled by a brownout pass."),
        ("service_tenant_submitted_total", "Accepted tickets per tenant."),
        ("service_priority_submitted_total", "Accepted tickets per priority class."),
        ("service_queue_enqueued_total", "Jobs accepted into the submission queue."),
        ("service_queue_rejected_total", "Submissions refused by admission control."),
        ("service_queue_requeued_total", "Promoted followers re-admitted at the queue front."),
        ("service_queue_retried_total", "Crashed jobs re-admitted by the supervisor."),
        ("service_supervisor_restarts_total", "Worker restarts across the fleet."),
        ("service_supervisor_stuck_total", "Stuck-worker fences among those restarts."),
        ("service_supervisor_retries_total", "Retry re-dispatches the supervisor scheduled."),
        ("service_breaker_opened_total", "Circuit-breaker transitions into open."),
        ("service_breaker_probes_total", "Half-open probes granted."),
        ("service_breaker_reclosed_total", "Successful probes that re-closed a breaker."),
        ("service_cache_served_total", "Requests served from the cache or by coalescing."),
        ("service_cache_misses_total", "Cache lookups that missed."),
        ("service_cache_insertions_total", "Solutions inserted into the cache."),
        ("service_cache_replacements_total", "Cache insertions that replaced an entry."),
        ("service_cache_evictions_total", "Cache entries evicted by capacity pressure."),
        ("service_convergence_requests_total", "Requests that produced a convergence trace."),
        ("service_convergence_samples_total", "Generation samples across those traces."),
        ("service_convergence_stalled_chains_total", "Chains whose best had plateaued by mid-run."),
        ("service_convergence_collapsed_total", "Traces that ended in a diversity collapse."),
        ("timing_request_wall_ms", "Submission-to-fulfilment latency (wall clock)."),
        ("timing_queue_peak_depth", "Deepest the admitted queue ever got."),
        ("timing_cache_hits_total", "Requests served as direct cache hits."),
        ("timing_cache_coalesced_total", "Requests coalesced onto an in-flight primary."),
        ("service_backend_requests_total", "Requests dispatched per execution backend."),
        ("timing_backend_native_wall_ms", "Per-request device wall time on the native backend."),
        ("timing_wall_seconds", "Wall-clock lifetime of the service, seconds."),
        ("device_requests_total", "Requests that completed on the device."),
        ("device_failed_total", "Requests that ended in an error on the device."),
        (
            "device_kernel_launches_total",
            "Kernel launches on the device; native counts each launch a pass stands for.",
        ),
        ("device_modeled_busy_seconds", "Modeled device seconds of the simulator's runs."),
        ("device_busy_wall_seconds", "Wall-clock seconds the device spent running requests."),
        ("device_utilization", "Busy wall seconds over the service's wall-clock lifetime."),
    ];
    // `FaultStats::observe_into` writes one family per counter under each
    // prefix: fleet-wide totals and per-device splits.
    const FAULT_HELP: &[(&str, &str)] = &[
        ("launches_attempted_total", "Launches attempted under a fault plan"),
        ("transient_launch_failures_total", "Launches aborted by an injected transient failure"),
        ("bit_flips_total", "Global-memory reads that returned an injected bit flip"),
        ("hung_kernels_total", "Launches killed by the watchdog after an injected hang"),
        ("worker_crashes_total", "Injected whole-device deaths"),
    ];
    for (name, help) in HELP {
        metrics.describe(name, help);
    }
    for (suffix, help) in FAULT_HELP {
        metrics.describe(&format!("service_fault_{suffix}"), &format!("{help}, fleet-wide."));
        metrics.describe(&format!("device_fault_{suffix}"), &format!("{help}, per device."));
    }
}

fn fold_final_metrics(
    metrics: &mut MetricsRegistry,
    st: &State,
    queue: &QueueStats,
    cache: &CacheStats,
    convergence: Option<ConvergenceTotals>,
    native: bool,
    wall_seconds: f64,
) {
    describe_service_metrics(metrics);
    metrics.inc("service_requests_submitted_total", &[], st.submitted);
    // Per-tenant and per-class admission counts. Tenants appear in BTreeMap
    // (= byte-stable) order; all three priority classes register even at
    // zero so equal workloads stay line-for-line comparable.
    for (tenant, count) in &st.tenant_submitted {
        metrics.inc("service_tenant_submitted_total", &[("tenant", tenant)], *count);
    }
    for p in [Priority::Batch, Priority::Normal, Priority::Interactive] {
        metrics.inc(
            "service_priority_submitted_total",
            &[("class", p.label())],
            st.priority_submitted[p.as_u8() as usize],
        );
    }
    metrics.inc("service_requests_completed_total", &[], st.completed);
    metrics.inc("service_requests_failed_total", &[], st.failed);
    metrics.inc("service_requests_expired_total", &[], st.expired);
    metrics.inc("service_degraded_total", &[], st.degraded);
    metrics.inc("service_degraded_brownout_total", &[], st.degraded_brownout);

    metrics.inc("service_queue_enqueued_total", &[], queue.enqueued);
    metrics.inc("service_queue_rejected_total", &[], queue.rejected);
    metrics.inc("service_queue_requeued_total", &[], queue.requeued);
    metrics.inc("service_queue_retried_total", &[], queue.retried);
    // Peak depth is a race between the submitting client and the draining
    // workers — timing-shaped, so it stays out of the `service_` namespace.
    metrics.set_gauge("timing_queue_peak_depth", &[], queue.peak_depth as f64);

    // Supervision counters. Restarts and retries are driven by injected
    // crash plans (routing-independent) and are deterministic for
    // deadline-free workloads; stuck fences are wall-clock events and stay
    // 0 unless a worker really wedged.
    metrics.inc(
        "service_supervisor_restarts_total",
        &[],
        st.slots.iter().map(|s| s.restarts).sum(),
    );
    metrics.inc("service_supervisor_stuck_total", &[], st.slots.iter().map(|s| s.stuck).sum());
    metrics.inc("service_supervisor_retries_total", &[], st.retries_scheduled);

    // Breaker counters — the documented `service_` carve-out (see above).
    metrics.inc(
        "service_breaker_opened_total",
        &[],
        st.slots.iter().map(|s| s.breaker.stats.opened).sum(),
    );
    metrics.inc(
        "service_breaker_probes_total",
        &[],
        st.slots.iter().map(|s| s.breaker.stats.probes).sum(),
    );
    metrics.inc(
        "service_breaker_reclosed_total",
        &[],
        st.slots.iter().map(|s| s.breaker.stats.reclosed).sum(),
    );

    // Backend routing tallies — registered (both labels, even at zero) only
    // when the fleet is configured native, so a default sim fleet renders a
    // snapshot byte-identical to one predating the backend split. On a
    // native fleet the `sim` label counts the capability-routed residue:
    // chaos, telemetry and trace-capture requests (see `worker_loop`).
    if native {
        metrics.inc(
            "service_backend_requests_total",
            &[("backend", "sim")],
            st.backend_requests[0],
        );
        metrics.inc(
            "service_backend_requests_total",
            &[("backend", "native")],
            st.backend_requests[1],
        );
    }

    // Whether a repeat is served as a direct hit or by coalescing depends
    // on whether the primary finished first — a race. Their *sum* does not.
    metrics.inc("service_cache_served_total", &[], cache.hits + cache.coalesced);
    metrics.inc("service_cache_misses_total", &[], cache.misses);
    metrics.inc("service_cache_insertions_total", &[], cache.insertions);
    metrics.inc("service_cache_replacements_total", &[], cache.replacements);
    metrics.inc("service_cache_evictions_total", &[], cache.evictions);
    metrics.inc("timing_cache_hits_total", &[], cache.hits);
    metrics.inc("timing_cache_coalesced_total", &[], cache.coalesced);

    // Convergence tallies only exist when telemetry was on: a disabled
    // service must render a snapshot byte-identical to one that predates
    // the telemetry feature. When on, all four series are registered even
    // at zero so equal workloads stay line-for-line comparable.
    if let Some(conv) = convergence {
        metrics.inc("service_convergence_requests_total", &[], conv.requests);
        metrics.inc("service_convergence_samples_total", &[], conv.samples);
        metrics.inc("service_convergence_stalled_chains_total", &[], conv.stalled_chains);
        metrics.inc("service_convergence_collapsed_total", &[], conv.collapsed);
    }

    let mut fleet_faults = FaultStats::default();
    for (id, s) in st.slots.iter().enumerate() {
        fleet_faults += s.usage.faults;
        s.usage.observe_into(metrics, &id.to_string(), wall_seconds);
    }
    fleet_faults.observe_into(metrics, "service_fault", &[]);

    metrics.set_gauge("timing_wall_seconds", &[], wall_seconds);
}

impl Drop for SolverService {
    fn drop(&mut self) {
        let Some(sup) = self.supervisor.take() else {
            return; // shutdown() already joined everything
        };
        if let Ok(mut st) = self.shared.state.lock() {
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        self.shared.supervise.notify_all();
        let _ = sup.join();
    }
}

/// Spawn (or respawn) the worker thread for `slot` at `generation`. Every
/// incarnation gets a *fresh* device built from the shared spec and the
/// slot's base fault plan — restarting a crashed worker replaces its dead
/// device rather than resurrecting it.
pub(crate) fn spawn_worker(shared: &Arc<Shared>, slot: usize, generation: u64) -> JoinHandle<()> {
    let mut handle = DeviceHandle::new(slot, shared.device_spec.clone());
    if let Some(plan) = shared.slot_plans[slot].clone() {
        handle = handle.with_fault(plan);
    }
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name(format!("cdd-device-{slot}"))
        .spawn(move || worker_loop(&shared, slot, generation, handle))
        .expect("worker thread spawns")
}

/// One device worker: steal the next job off the shared queue (when this
/// device's breaker admits it), run it on this device, publish the outcome.
///
/// Exits cleanly when the service is drained or when the slot's generation
/// moved past this worker (it was fenced as stuck — the result, if any, is
/// discarded because the job was already re-dispatched). Exits by *panic*
/// — with a [`WorkerCrashPanic`] payload the supervisor reaps — when the
/// device reports [`SuiteError::DeviceLost`].
fn worker_loop(shared: &Arc<Shared>, slot: usize, generation: u64, handle: DeviceHandle) {
    loop {
        let (request, retries) = {
            let mut st = shared.state.lock().expect("service state lock");
            loop {
                if st.slots[slot].generation != generation {
                    return; // fenced: a replacement worker owns this slot
                }
                // Drain expired heads first — an expired job must never
                // consume the breaker's half-open probe.
                while let Some(dead) = st.queue.pop_if(|j| j.expired()) {
                    expire_locked(&mut st, dead);
                    // A promoted follower (if any) is at the queue front;
                    // keep checking.
                }
                if st.queue.depth() == 0 {
                    if st.drained() {
                        shared.work.notify_all(); // wake peers to re-check
                        return;
                    }
                    st = shared.work.wait(st).expect("service state lock");
                    continue;
                }
                let now = shared.now_ms();
                if !st.slots[slot].breaker.allow(now) {
                    // Open breaker: leave the queue to healthy workers and
                    // nap — the backoff elapsing is a clock edge, not a
                    // condvar edge.
                    let (guard, _) = shared
                        .work
                        .wait_timeout(st, Duration::from_millis(BREAKER_RECHECK_MS))
                        .expect("service state lock");
                    st = guard;
                    continue;
                }
                // The breaker admitted us with a job available: take it.
                // (`allow` and the pop happen under one lock hold, so a
                // granted half-open probe always takes a job.)
                let mut job = st.queue.pop().expect("depth checked above");
                st.slots[slot].heartbeat_ms = now;
                if traced(&job.request) {
                    // Queue wait ends here. The breaker just admitted this
                    // worker, so its state at dispatch is closed or probing.
                    let breaker = match st.slots[slot].breaker.state() {
                        crate::breaker::BreakerState::HalfOpen => "half_open",
                        _ => "closed",
                    };
                    job.hops.push(
                        FlightHop::new("queue", "queue_wait", 0.0, elapsed_ms(job.submitted) * 1e3)
                            .with_detail("breaker", breaker)
                            .with_detail("retries", job.retries),
                    );
                }
                let request = job.request.clone();
                let retries = job.retries;
                st.slots[slot].in_flight = Some(job);
                break (request, retries);
            }
        };

        // Run outside the lock — this is the long part, and it is what
        // makes the pool concurrent: every other worker keeps stealing
        // while this device is busy. The fault plan is derived from the
        // request seed and the retry ordinal only (never the device id or
        // the clock) — the chaos determinism contract hangs on this.
        let run_started = Instant::now();
        let fault = handle.request_plan_retry(request.seed, retries);
        // Per-request backend routing (DESIGN.md §16): fault injection,
        // convergence telemetry and trace capture exist only in the
        // simulator, so a request carrying any of them runs on sim no
        // matter what the fleet is configured for. Everything else — the
        // clean production path — runs on the configured backend.
        let backend = if fault.as_ref().is_some_and(FaultPlan::is_active)
            || shared.telemetry.enabled()
            || shared.capture_trace
        {
            Backend::Sim
        } else {
            shared.backend
        };
        let spec = GpuSolveSpec {
            blocks: shared.blocks,
            block_size: shared.block_size,
            device: handle.spec.clone(),
            backend,
            fault,
            recovery: shared.recovery.clone(),
            telemetry: shared.telemetry,
        };
        let result = run_gpu_solve(
            &request.instance,
            request.algorithm,
            request.iterations,
            request.seed,
            &spec,
        );
        let run_wall = run_started.elapsed().as_secs_f64();

        let mut st = shared.state.lock().expect("service state lock");
        if st.slots[slot].generation != generation {
            // Fenced while running: the supervisor already took the job
            // back and re-dispatched it. Discard everything — recording
            // usage or a result here would double-count against the
            // replacement worker's slot.
            return;
        }
        let now = shared.now_ms();
        st.slots[slot].heartbeat_ms = now;
        if let Err(SuiteError::DeviceLost { detail }) = &result {
            // The simulated device died under this job. Leave the job in
            // `in_flight` for the supervisor to re-dispatch, record the
            // failed run, and crash this worker the way a real device loss
            // kills a host thread: by panicking. The breaker failure is
            // recorded by the supervisor (exactly once per death, whether
            // the job was mid-run or not).
            let detail = detail.clone();
            st.slots[slot].usage.record_run(0.0, 0.0, 0.0, 0, run_wall, true);
            drop(st);
            shared.supervise.notify_all();
            std::panic::panic_any(WorkerCrashPanic { device: slot, detail });
        }
        let mut job = st.slots[slot].in_flight.take().expect("job was in flight");
        st.backend_requests[match backend {
            Backend::Sim => 0,
            Backend::Native => 1,
        }] += 1;
        if backend == Backend::Native {
            // Mirrors `timing_request_wall_ms`: one observation per request.
            st.metrics.observe(
                "timing_backend_native_wall_ms",
                &[],
                run_wall * 1e3,
                latency_ms_buckets(),
            );
        }
        if traced(&job.request) {
            let hop = match &result {
                Ok(r) => {
                    FlightHop::new("worker", "attempt", r.modeled_seconds * 1e6, run_wall * 1e6)
                }
                Err(_) => FlightHop::new("worker", "attempt_failed", 0.0, run_wall * 1e6),
            };
            job.hops.push(hop.with_device(slot as u32).with_detail("retry", job.retries));
        }
        match &result {
            Ok(r) => record_success_locked(&mut st, slot, &job, r, run_wall, now, shared),
            Err(_) => {
                st.slots[slot].usage.record_run(0.0, 0.0, 0.0, 0, run_wall, true);
                st.slots[slot].breaker.record_failure(now);
            }
        }
        complete_locked(&mut st, job, slot, result);
        if st.shutdown {
            // Peers may be waiting to observe the drain.
            shared.work.notify_all();
        }
    }
}

/// Book-keep a successful run against its slot: usage, breaker fault-rate
/// signal, convergence tallies and (when capture is on) the trace track.
fn record_success_locked(
    st: &mut State,
    slot: usize,
    job: &QueuedJob,
    r: &cdd_gpu::GpuRunResult,
    run_wall: f64,
    now_ms: u64,
    shared: &Shared,
) {
    let s = &mut st.slots[slot];
    s.usage.record_run(
        r.modeled_seconds,
        r.kernel_seconds,
        r.transfer_seconds,
        r.kernel_launches,
        run_wall,
        false,
    );
    s.usage.faults += r.recovery.faults;
    s.breaker.note_fault_rate(&r.recovery.faults, now_ms);
    if let Some(trace_data) = &r.convergence {
        s.convergence.record(&ConvergenceSummary::from_trace(trace_data));
    }
    if shared.capture_trace {
        let tid = slot as u32;
        let (events, end_us) = timeline_trace_events(&r.timeline, 0, tid, s.trace_clock_us);
        s.trace.push(
            TraceEvent::begin(
                &format!("request seed={}", job.request.seed),
                "request",
                0,
                tid,
                s.trace_clock_us,
            )
            .with_arg("algorithm", job.request.algorithm)
            .with_arg("iterations", job.request.iterations),
        );
        s.trace.extend(events);
        // Best-so-far counter samples, pinned to the same modeled-clock
        // offsets as the kernel spans above.
        if let Some(conv) = &r.convergence {
            s.trace.extend(counter_trace_events(conv, &r.timeline, 0, tid, s.trace_clock_us));
        }
        s.trace.push(TraceEvent::end(
            &format!("request seed={}", job.request.seed),
            "request",
            0,
            tid,
            end_us,
        ));
        s.trace_clock_us = end_us;
    }
}

/// Answer an expired primary; promote its oldest still-live follower into
/// the vacated queue slot (at the front — it has been waiting longest).
/// Followers that expired too are answered on the way.
pub(crate) fn expire_locked(st: &mut State, mut job: QueuedJob) {
    st.expired += 1;
    let deadline = job.request.deadline_ms.unwrap_or(0);
    let wall_ms = elapsed_ms(job.submitted);
    if traced(&job.request) {
        job.hops.push(
            FlightHop::new("queue", "expired", 0.0, wall_ms * 1e3)
                .with_detail("deadline_ms", deadline),
        );
    }
    let flight = start_flight(job.request.trace).map(|mut f| {
        f.hops = job.hops.clone();
        f
    });
    st.deliver(RequestOutcome {
        ticket: job.ticket,
        device: None,
        wall_ms,
        result: Err(SuiteError::deadline(deadline)),
        flight,
    });
    let Some(followers) = st.followers.remove(&job.key) else { return };
    let mut rest = followers.into_iter();
    for f in rest.by_ref() {
        // Compare in u128 — truncating elapsed ms to u64 could wrap a huge
        // deadline into a premature expiry (same fix as `QueuedJob::expired`).
        let f_expired = match f.deadline_ms {
            Some(ms) => f.submitted.elapsed().as_millis() >= u128::from(ms),
            None => false,
        };
        if f_expired {
            st.expired += 1;
            let wall_ms = elapsed_ms(f.submitted);
            let flight = start_flight(f.trace).map(|mut fl| {
                fl.hops.push(FlightHop::new("queue", "expired", 0.0, wall_ms * 1e3));
                fl
            });
            st.deliver(RequestOutcome {
                ticket: f.ticket,
                device: None,
                wall_ms,
                result: Err(SuiteError::deadline(f.deadline_ms.unwrap_or(0))),
                flight,
            });
            continue;
        }
        // The promoted follower keeps its *own* trace context — it was a
        // distinct request that merely coalesced onto the expired primary.
        let request =
            SolveRequest { deadline_ms: f.deadline_ms, trace: f.trace, ..job.request.clone() };
        st.queue.requeue_front(QueuedJob {
            ticket: f.ticket,
            request,
            key: job.key,
            submitted: f.submitted,
            retries: 0,
            hops: Vec::new(),
        });
        st.followers.insert(job.key, rest.collect());
        return;
    }
}

/// Publish a finished solve: optionally cache it, fulfil the primary
/// ticket and every coalesced follower.
pub(crate) fn publish_locked(
    st: &mut State,
    job: QueuedJob,
    device: Option<usize>,
    outcome: Result<SolveOutcome, SuiteError>,
    cache: bool,
) {
    if cache {
        if let Ok(o) = &outcome {
            st.cache.insert(job.key, o);
        }
    }
    let flight = start_flight(job.request.trace).map(|mut f| {
        f.hops = job.hops.clone();
        f
    });
    fulfil(st, job.ticket, device, job.submitted, &outcome, false, flight);
    if let Some(followers) = st.followers.remove(&job.key) {
        for f in followers {
            // A follower's whole journey was "wait for the shared solve":
            // one hop, wall-timed from its own submission.
            let flight = start_flight(f.trace).map(|mut fl| {
                fl.hops.push(FlightHop::new(
                    "service",
                    "coalesced",
                    0.0,
                    elapsed_ms(f.submitted) * 1e3,
                ));
                fl
            });
            fulfil(st, f.ticket, device, f.submitted, &outcome, true, flight);
        }
    }
}

/// Publish a finished device solve: update the cache, fulfil the primary
/// ticket and every coalesced follower.
fn complete_locked(
    st: &mut State,
    job: QueuedJob,
    device: usize,
    result: Result<cdd_gpu::GpuRunResult, SuiteError>,
) {
    let outcome: Result<SolveOutcome, SuiteError> = match result {
        Ok(r) => Ok(SolveOutcome {
            sequence: r.best,
            objective: r.objective,
            modeled_seconds: r.modeled_seconds,
            evaluations: r.evaluations,
            cache_hit: false,
            device: Some(device),
            cpu_fallback: r.recovery.cpu_fallback,
            degraded: false,
        }),
        Err(e) => Err(e),
    };
    publish_locked(st, job, Some(device), outcome, true);
}

/// Answer `job` from the CPU oracle with `degraded: true` — the graceful
/// half of "graceful degradation". Never cached: a later healthy fleet
/// must be able to serve the real metaheuristic answer for the same key.
pub(crate) fn serve_degraded(st: &mut State, mut job: QueuedJob, brownout: bool) {
    st.degraded += 1;
    if brownout {
        st.degraded_brownout += 1;
    }
    if traced(&job.request) {
        job.hops.push(
            FlightHop::new("supervisor", "degraded", 0.0, elapsed_ms(job.submitted) * 1e3)
                .with_detail("brownout", brownout),
        );
    }
    let outcome = cdd_core::degraded_outcome(&job.request.instance);
    publish_locked(st, job, None, Ok(outcome), false);
}

fn fulfil(
    st: &mut State,
    ticket: u64,
    device: Option<usize>,
    submitted: Instant,
    outcome: &Result<SolveOutcome, SuiteError>,
    coalesced: bool,
    flight: Option<FlightRecord>,
) {
    let result = match outcome {
        Ok(o) => {
            st.completed += 1;
            Ok(if coalesced {
                // A follower's answer came from the shared computation —
                // semantically a cache hit that was satisfied in flight.
                SolveOutcome { cache_hit: true, device: None, ..o.clone() }
            } else {
                o.clone()
            })
        }
        Err(e) => {
            st.failed += 1;
            Err(e.clone())
        }
    };
    st.deliver(RequestOutcome { ticket, device, wall_ms: elapsed_ms(submitted), result, flight });
}
