//! The four workloads, the traffic each sends, and the scale a run uses.

use crate::fleet::{self, DEFAULT_PORT_BASE};
use crate::stats::splitmix64;
use crate::verify::PINNED_PREFIX;
use cdd_bench::workload::{generate_mixed_tenants, generate_unique_tenants, WorkloadEntry};
use cdd_core::{Algorithm, Priority};
use cdd_gpu::{Backend, GpuSolveSpec};
use cdd_net::router::shard_for;
use cdd_service::ServiceConfig;
use std::collections::{BTreeMap, VecDeque};

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Independent users: one sender thread sends on a seeded Poisson
    /// schedule at the workload's rate over one connection, whatever the
    /// replies do.
    Open,
    /// Callers that wait: each connection keeps `window` requests in flight.
    Closed {
        /// Client connections (one thread each).
        connections: usize,
        /// Requests in flight per connection.
        window: usize,
    },
}

/// What the request stream contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// `generate_mixed_tenants` in blocks of [`MIX_BLOCK`]: about a quarter
    /// of the requests repeat recent work, inside the cache's reach.
    Mixed,
    /// `generate_unique_tenants` work (every request distinct, so the
    /// solution cache and coalescing are bypassed) dealt round-robin over
    /// the `(n, kind, algorithm)` classes and, within each class, over the
    /// nodes the router sends the requests to (at the default ports), with
    /// the given priorities laid over each round in turn. Every prefix of
    /// the stream then has the same composition and the same split between
    /// the nodes: a run's share of large instances or of batch requests, and
    /// how unevenly the router's hashing loads the two nodes, which set its
    /// latencies, do not swing with the seed. Request `i` goes to node
    /// `i % 2`.
    Stratified(&'static [Priority]),
}

/// One workload: a traffic mix, how it arrives, and the fleet geometry.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Request stream.
    pub traffic: Traffic,
    /// Instance sizes the stream draws from.
    pub sizes: &'static [usize],
    /// Generation budget of every request.
    pub iterations: u64,
    /// Grid size of every solve.
    pub blocks: usize,
    /// Block size of every solve.
    pub block_size: usize,
    /// Execution backend of both nodes.
    pub backend: Backend,
    /// Requests per second: the offered load of an open loop, and what the
    /// fleet answered on the reference host for a closed loop. A measured
    /// phase sends `rate × seconds` requests (at least the
    /// [`PINNED_PREFIX`] the correctness gate hashes), so a closed loop runs
    /// about `--seconds` and a faster or slower fleet shortens or stretches
    /// it.
    pub rate_per_s: f64,
    /// Distinct requests each peel level runs serially (a level stays
    /// within 5 s).
    pub peel_sample: usize,
    /// SA requests the kernel replay re-runs launch by launch.
    pub replay_sample: usize,
}

/// Tenants every stream is spread over.
const TENANTS: usize = 4;

/// The 1 : 2 : 1 batch : normal : interactive mix `generate_mixed_tenants`
/// draws, as a cycle for [`Traffic::Stratified`].
const MIXED_PRIORITIES: &[Priority] = &[
    Priority::Batch,
    Priority::Normal,
    Priority::Interactive,
    Priority::Normal,
];

/// Block length of [`Traffic::Mixed`]: repeats point back at most this far,
/// well inside the nodes' default 256-entry solution caches.
const MIX_BLOCK: usize = 64;

/// Warm-up requests each fleet answers before it counts as set up.
const WARMUP_REQUESTS: usize = 50;

/// Generation budget of the warm-up requests. No workload uses it, so the
/// warm-up work is disjoint from the measured work by content key.
const WARMUP_ITERATIONS: u64 = 20;

/// Generation budget of every workload at `--smoke` scale.
const SMOKE_ITERATIONS: u64 = 12;

const SMALL: &[usize] = &[10, 20, 50];

/// Every workload the benchmark runs (see `benchmark/README.md` for why
/// each exists).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small-open",
        arrivals: Arrivals::Open,
        traffic: Traffic::Stratified(MIXED_PRIORITIES),
        sizes: SMALL,
        iterations: 120,
        blocks: 1,
        block_size: 64,
        backend: Backend::Native,
        // About a tenth of the fleet's capacity on the reference host, so
        // the host's slow spells, in which the hypervisor withheld up to
        // half of the time the CPUs wanted to run, neither overflow the
        // nodes' 64-deep queues (failing requests) nor let the queues, and
        // with them the latencies, run away.
        rate_per_s: 50.0,
        peel_sample: 300,
        replay_sample: 4,
    },
    Workload {
        name: "small-closed",
        arrivals: Arrivals::Closed {
            connections: 2,
            window: 8,
        },
        traffic: Traffic::Mixed,
        sizes: SMALL,
        iterations: 120,
        blocks: 1,
        block_size: 64,
        backend: Backend::Native,
        rate_per_s: 500.0,
        peel_sample: 300,
        replay_sample: 4,
    },
    Workload {
        name: "large-paper",
        arrivals: Arrivals::Closed {
            connections: 2,
            window: 2,
        },
        // One priority class: with two requests in flight per connection,
        // mixed priorities would set the latencies by how long batch
        // requests wait behind the others, not by the solves. Request `i`
        // goes out on connection `i % 2` and to node `i % 2`, so each node
        // always has two requests and never idles.
        traffic: Traffic::Stratified(&[Priority::Normal]),
        sizes: &[200, 500],
        iterations: 100,
        blocks: 4,
        block_size: 192,
        backend: Backend::Native,
        rate_per_s: 6.0,
        peel_sample: 8,
        replay_sample: 2,
    },
    Workload {
        name: "sim-referee",
        arrivals: Arrivals::Closed {
            connections: 2,
            window: 8,
        },
        traffic: Traffic::Mixed,
        sizes: SMALL,
        iterations: 120,
        blocks: 1,
        block_size: 64,
        backend: Backend::Sim,
        rate_per_s: 280.0,
        peel_sample: 200,
        replay_sample: 4,
    },
];

/// The workload called `name`.
#[must_use]
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// How much a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Fleets set up (and torn down) to measure `setup_s`: half of them,
    /// rounded up, before the measured phase and the rest after it.
    pub setup_reps: usize,
    /// `--smoke`: short generation budgets and samples, same metric names.
    pub smoke: bool,
}

impl Scale {
    /// The scale of a full run measuring `seconds`.
    #[must_use]
    pub fn full(seconds: f64) -> Self {
        Scale {
            seconds,
            setup_reps: 9,
            smoke: false,
        }
    }

    /// The `--smoke` scale: every workload ends within about 5 s.
    #[must_use]
    pub fn smoke() -> Self {
        Scale {
            seconds: 1.0,
            setup_reps: 2,
            smoke: true,
        }
    }
}

impl Workload {
    /// The workload as run at `scale`: `--smoke` cuts generation budgets and
    /// samples so every workload ends within about 5 s.
    #[must_use]
    pub fn at(self, scale: &Scale) -> Workload {
        if !scale.smoke {
            return self;
        }
        // A closed loop answers faster with the shorter budgets, so it sends
        // proportionally more; an open loop keeps its offered load.
        #[allow(clippy::cast_precision_loss)]
        let speedup = match self.arrivals {
            Arrivals::Open => 1.0,
            Arrivals::Closed { .. } => self.iterations as f64 / SMOKE_ITERATIONS as f64,
        };
        Workload {
            iterations: SMOKE_ITERATIONS,
            rate_per_s: self.rate_per_s * speedup,
            peel_sample: self.peel_sample.min(24),
            replay_sample: 1,
            ..self
        }
    }

    /// Configuration of each node's service: defaults, except one device
    /// and the workload's geometry and backend.
    #[must_use]
    pub(crate) fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            devices: 1,
            blocks: self.blocks,
            block_size: self.block_size,
            backend: self.backend,
            ..ServiceConfig::default()
        }
    }

    /// The spec a node's worker hands `run_gpu_solve` for a clean request.
    #[must_use]
    pub(crate) fn gpu_spec(&self) -> GpuSolveSpec {
        GpuSolveSpec {
            blocks: self.blocks,
            block_size: self.block_size,
            backend: self.backend,
            ..GpuSolveSpec::default()
        }
    }

    /// Requests a phase of about `seconds` sends.
    #[must_use]
    pub(crate) fn requests(&self, seconds: f64) -> usize {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let n = (self.rate_per_s * seconds).round() as usize;
        n.max(PINNED_PREFIX)
    }

    /// The first `count` requests of the workload's stream for `seed`. A
    /// prefix does not depend on `count` once the stream is long enough to
    /// hold every class of [`Traffic::Stratified`].
    #[must_use]
    pub fn entries(&self, seed: u64, count: usize) -> Vec<WorkloadEntry> {
        match self.traffic {
            Traffic::Mixed => {
                let mut out = Vec::with_capacity(count + MIX_BLOCK);
                let mut block: u64 = 0;
                while out.len() < count {
                    let mut state = seed ^ (block << 32 | 0xB10C);
                    out.extend(generate_mixed_tenants(
                        MIX_BLOCK,
                        splitmix64(&mut state),
                        self.iterations,
                        self.sizes,
                        TENANTS,
                    ));
                    block += 1;
                }
                out.truncate(count);
                out
            }
            Traffic::Stratified(priorities) => self.stratified(seed, count, priorities),
        }
    }

    fn stratified(&self, seed: u64, count: usize, priorities: &[Priority]) -> Vec<WorkloadEntry> {
        if count == 0 {
            return Vec::new();
        }
        let addrs = fleet::node_addrs(DEFAULT_PORT_BASE);
        let addrs: Vec<&str> = addrs.iter().map(String::as_str).collect();
        let alive = vec![true; addrs.len()];
        // Every size × two kinds × two algorithms × every node.
        let wanted = self.sizes.len() * 4 * addrs.len();
        let mut pool_len = count * 4;
        loop {
            // Keyed node last, so a round alternates between the nodes.
            let mut classes: BTreeMap<(usize, bool, bool, usize), VecDeque<WorkloadEntry>> =
                BTreeMap::new();
            for e in generate_unique_tenants(pool_len, seed, self.iterations, self.sizes, TENANTS) {
                let node = shard_for(e.to_request().content_key(), &addrs, &alive)
                    .expect("every node is alive");
                let class = (e.id.n, e.id.h.is_some(), e.algorithm == Algorithm::Sa, node);
                classes.entry(class).or_default().push_back(e);
            }
            let mut out = Vec::with_capacity(count);
            'deal: for round in 0.. {
                if classes.len() < wanted {
                    break;
                }
                for (class, queue) in classes.values_mut().enumerate() {
                    let Some(mut e) = queue.pop_front() else {
                        break 'deal;
                    };
                    // Priority is not part of the content key: the work is
                    // unchanged, and each class takes every priority in turn.
                    e.priority = priorities[(round + class) % priorities.len()];
                    out.push(e);
                    if out.len() == count {
                        return out;
                    }
                }
            }
            // A class was missing or ran dry before the stream was full: draw
            // a larger pool (its prefix, and so the dealt prefix, is
            // unchanged).
            pool_len *= 2;
        }
    }
}

/// The warm-up requests a fleet answers before it counts as set up: small
/// instances at a generation budget no workload uses.
#[must_use]
pub(crate) fn warmup_entries(seed: u64) -> Vec<WorkloadEntry> {
    generate_unique_tenants(
        WARMUP_REQUESTS,
        seed ^ 0x5741_524D,
        WARMUP_ITERATIONS,
        &[10, 20],
        TENANTS,
    )
}
