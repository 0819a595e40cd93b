//! The per-layer run (`--trace 1`): where the end-to-end time goes.
//!
//! * Loaded phases: the workload runs untraced, then traced, each on a
//!   fresh fleet. Router and node counters, node reports and the flight
//!   records traced requests bring back give the queue, cache and worker
//!   numbers; the two throughputs give the tracing overhead.
//! * Peel: one fixed sample of distinct requests runs serially through
//!   fewer and fewer layers, each on a fresh fleet — client → router →
//!   node, client → node, in-process `SolverService`, direct
//!   `run_gpu_solve`. A layer's self time is the p50 over the sample of the
//!   per-request latency difference between adjacent levels.
//! * Replay: the SA kernel loop re-run launch by launch from the public
//!   kernels (see [`crate::replay`]), timing host set-up, transfers and
//!   every launch.
//!
//! Every number is timed from outside through public functions.

use crate::fleet::{Fleet, PEEL_PORT_OFFSET};
use crate::loadgen::{self, request_frame, Exchange, Phase};
use crate::replay::{replay_sa, Replay};
use crate::report::Report;
use crate::run::{measure, Measured};
use crate::spans::{Layer, Spans};
use crate::stats::{mean, median, percentile};
use crate::verify::{self, Instances, PINNED_PREFIX};
use crate::workloads::{warmup_entries, Scale, Workload};
use cdd_bench::workload::WorkloadEntry;
use cdd_core::eval::evaluator_for;
use cdd_core::{Algorithm, JobSequence};
use cdd_gpu::{run_gpu_solve, Backend, GpuRunResult};
use cdd_net::frame::{chunk_sequence, Frame, NodeStats};
use cdd_net::router::shard_for;
use cdd_service::SolverService;
use cuda_sim::{Gpu, NativeGpu};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Share of `--seconds` each loaded phase (untraced, traced) runs.
const LOADED_SHARE: f64 = 0.4;

/// Exchanges whose frames the codec timing re-encodes and re-decodes.
const CODEC_SAMPLE: usize = 256;

/// Random permutations per instance the evaluator timing scores.
const EVAL_PERMUTATIONS: usize = 32;

/// Passes over those permutations.
const EVAL_PASSES: usize = 8;

fn ms(start: Instant, end: Instant) -> f64 {
    end.saturating_duration_since(start).as_secs_f64() * 1e3
}

/// Router-aggregated and per-node counters at one instant.
struct Counters {
    router: NodeStats,
    nodes: Vec<NodeStats>,
}

fn counters(fleet: &Fleet) -> Result<Counters, String> {
    let stats = |addr: &str| cdd_net::client::stats(addr).map_err(|e| format!("stats {addr}: {e}"));
    Ok(Counters {
        router: stats(fleet.router_addr.as_deref().expect("the fleet is routed"))?,
        nodes: fleet
            .node_addrs
            .iter()
            .map(|a| stats(a))
            .collect::<Result<_, _>>()?,
    })
}

/// One loaded phase on a fresh fleet, with the fleet's counters around it.
struct Loaded {
    measured: Measured,
    before: Counters,
    after: Counters,
    /// Mean `DeviceReport::utilization` over the fleet's devices.
    worker_busy: f64,
}

fn loaded(
    w: &Workload,
    entries: &[WorkloadEntry],
    seed: u64,
    port_base: u16,
    traced: bool,
) -> Result<Loaded, String> {
    let fleet = Fleet::ready(w, port_base, true, &warmup_entries(seed))?;
    let router = fleet.router_addr.clone().expect("the fleet is routed");
    let run = counters(&fleet).and_then(|before| {
        let measured = measure(w, &router, entries, seed, traced)?;
        Ok((before, measured, counters(&fleet)?))
    });
    let reports = fleet.shutdown();
    let (before, measured, after) = run?;
    let busy: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.service.devices.iter().map(|d| d.utilization))
        .collect();
    Ok(Loaded {
        measured,
        before,
        after,
        worker_busy: mean(&busy),
    })
}

/// Every frame one answered exchange put on the client's socket.
fn exchange_frames(x: &Exchange, e: &WorkloadEntry) -> Vec<Frame> {
    let response = x.response.clone().expect("answered exchange");
    let mut frames = vec![request_frame(x.idx, e, false)];
    frames.extend(
        chunk_sequence(response.id, &x.sequence)
            .into_iter()
            .map(Frame::Chunk),
    );
    frames.push(Frame::Response(response));
    frames
}

/// Mean microseconds to encode, and to decode, the frames of one exchange,
/// over a sample of the phase's own exchanges.
fn codec_us(entries: &[WorkloadEntry], phase: &Phase) -> (f64, f64) {
    let frames: Vec<Vec<Frame>> = phase
        .exchanges
        .iter()
        .filter(|x| x.response.is_some())
        .take(CODEC_SAMPLE)
        .map(|x| exchange_frames(x, &entries[x.idx]))
        .collect();
    let bodies: Vec<Vec<Vec<u8>>> = frames
        .iter()
        .map(|fs| fs.iter().map(Frame::encode).collect())
        .collect();
    let per_exchange = |f: &dyn Fn()| {
        let t = Instant::now();
        let mut passes = 0u32;
        while passes < 3 || t.elapsed().as_secs_f64() < 0.02 {
            f();
            passes += 1;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = (frames.len().max(1) as f64) * f64::from(passes);
        t.elapsed().as_secs_f64() * 1e6 / n
    };
    let encode = per_exchange(&|| {
        for fs in &frames {
            for f in fs {
                black_box(f.encode());
            }
        }
    });
    let decode = per_exchange(&|| {
        for bs in &bodies {
            for b in bs {
                black_box(Frame::decode_body(&b[4..]).expect("own frames decode"));
            }
        }
    });
    (encode, decode)
}

/// Microseconds of one traced request's node admission hops.
fn admit_us(x: &Exchange) -> Option<f64> {
    let flight = x.response.as_ref()?.flight.as_ref()?;
    let hops = flight
        .hops
        .iter()
        .filter(|h| h.layer == "node" && ["auth", "limit", "validate"].contains(&h.name.as_str()));
    Some(hops.map(|h| h.wall_us).sum())
}

fn queue_wait_ms(x: &Exchange) -> Option<f64> {
    Some(
        x.response
            .as_ref()?
            .flight
            .as_ref()?
            .hop("queue_wait")?
            .wall_us
            / 1e3,
    )
}

/// The first `count` requests of `entries` with distinct content keys.
fn distinct_sample(entries: &[WorkloadEntry], count: usize) -> (Vec<usize>, Vec<u64>) {
    let mut seen = HashSet::new();
    let mut idxs = Vec::with_capacity(count);
    let mut keys = vec![0u64; entries.len()];
    for (i, e) in entries.iter().enumerate() {
        if idxs.len() == count {
            break;
        }
        let key = e.to_request().content_key();
        keys[i] = key;
        if seen.insert(key) {
            idxs.push(i);
        }
    }
    (idxs, keys)
}

/// Peel levels, outermost first.
const LEVELS: [(&str, Layer); 4] = [
    ("peel.client-router-node", Layer::Net),
    ("peel.client-node", Layer::Net),
    ("peel.service", Layer::Service),
    ("peel.run_gpu_solve", Layer::Gpu),
];

/// What the peel measured for its sample, in sample order.
struct Peeled {
    /// Latency per level (outermost first), milliseconds.
    latency_ms: [Vec<f64>; 4],
    /// Objective and sequence per level.
    answers: Vec<[(i64, Vec<u32>); 4]>,
    /// The direct `run_gpu_solve` results.
    results: Vec<GpuRunResult>,
}

impl Peeled {
    /// Self time of level `upper`: p50 over the sample of its latency minus
    /// the next level's, request by request.
    fn self_ms(&self, upper: usize) -> f64 {
        let diffs: Vec<f64> = self.latency_ms[upper]
            .iter()
            .zip(&self.latency_ms[upper + 1])
            .map(|(u, l)| u - l)
            .collect();
        median(&diffs).unwrap_or(0.0)
    }
}

fn answer(x: Exchange) -> Result<(i64, Vec<u32>), String> {
    match x.response {
        Some(r) => Ok((r.objective, x.sequence)),
        None => Err(format!("peel request {} failed: {:?}", x.idx, x.error)),
    }
}

/// Run the sample through the four levels — client → router → node,
/// client → node, in-process service, direct `run_gpu_solve` — each on a
/// fleet (or service) of its own. All four are up at once and the sample is
/// interleaved request by request, rotating which level goes first, so
/// drift in the machine's speed hits every level alike.
#[allow(clippy::too_many_arguments)]
fn peel(
    w: &Workload,
    entries: &[WorkloadEntry],
    sample: &[usize],
    keys: &[u64],
    seed: u64,
    port_base: u16,
    instances: &mut Instances,
    spans: &mut Spans,
    parent: u64,
) -> Result<Peeled, String> {
    let warmup = warmup_entries(seed);
    let routed = Fleet::ready(w, port_base, true, &warmup)?;
    let direct = match Fleet::ready(w, port_base + PEEL_PORT_OFFSET, false, &warmup) {
        Ok(f) => f,
        Err(e) => {
            routed.shutdown();
            return Err(e);
        }
    };
    let service = SolverService::start(w.service_config());
    let run = (|| -> Result<Peeled, String> {
        let spec = w.gpu_spec();
        for e in &warmup {
            service
                .solve(e.to_request())
                .map_err(|err| format!("service warm-up: {err}"))?;
        }
        for e in warmup.iter().take(8) {
            run_gpu_solve(
                instances.instance(&e.id),
                e.algorithm,
                e.iterations,
                e.seed,
                &spec,
            )
            .map_err(|err| format!("solve warm-up: {err}"))?;
        }
        let mut router_conn = loadgen::connect(routed.router_addr.as_deref().expect("routed"))?;
        let mut node_conns = direct
            .node_addrs
            .iter()
            .map(|a| loadgen::connect(a))
            .collect::<Result<Vec<_>, _>>()?;
        let addrs: Vec<&str> = direct.node_addrs.iter().map(String::as_str).collect();
        let alive = vec![true; addrs.len()];
        let pick = |idx: usize| shard_for(keys[idx], &addrs, &alive).expect("every node is alive");
        let mut out = Peeled {
            latency_ms: Default::default(),
            answers: Vec::with_capacity(sample.len()),
            results: Vec::with_capacity(sample.len()),
        };
        for (i, &idx) in sample.iter().enumerate() {
            let e = &entries[idx];
            let mut got: [(i64, Vec<u32>); 4] = Default::default();
            let mut result = None;
            for k in 0..LEVELS.len() {
                let level = (i + k) % LEVELS.len();
                let t = Instant::now();
                got[level] = match level {
                    0 => answer(loadgen::serial(&mut router_conn, entries, idx)?)?,
                    1 => answer(loadgen::serial(&mut node_conns[pick(idx)], entries, idx)?)?,
                    2 => {
                        let ticket = service
                            .submit(e.to_request())
                            .map_err(|err| format!("service submit {idx}: {err}"))?;
                        let o = service
                            .wait(ticket)
                            .result
                            .map_err(|err| format!("service {idx}: {err}"))?;
                        (o.objective, o.sequence.as_slice().to_vec())
                    }
                    _ => {
                        let inst = instances.instance(&e.id);
                        let r = run_gpu_solve(inst, e.algorithm, e.iterations, e.seed, &spec)
                            .map_err(|err| format!("direct solve {idx}: {err}"))?;
                        let got = (r.objective, r.best.as_slice().to_vec());
                        result = Some(r);
                        got
                    }
                };
                let end = Instant::now();
                out.latency_ms[level].push(ms(t, end));
                spans.record(
                    LEVELS[level].0,
                    LEVELS[level].1,
                    (t, end),
                    parent,
                    Some(idx),
                );
            }
            out.answers.push(got);
            out.results.push(result.expect("the direct level ran"));
        }
        Ok(out)
    })();
    service.shutdown();
    direct.shutdown();
    routed.shutdown();
    run
}

/// Nanoseconds per `SequenceEvaluator::evaluate` on `inst`.
fn eval_ns(inst: &cdd_core::Instance, seed: u64) -> f64 {
    let eval = evaluator_for(inst);
    let mut rng = StdRng::seed_from_u64(seed);
    let perms: Vec<JobSequence> = (0..EVAL_PERMUTATIONS)
        .map(|_| JobSequence::random(inst.n(), &mut rng))
        .collect();
    let t = Instant::now();
    for _ in 0..EVAL_PASSES {
        for p in &perms {
            black_box(eval.evaluate(black_box(p.as_slice())));
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let evals = (EVAL_PASSES * EVAL_PERMUTATIONS) as f64;
    t.elapsed().as_secs_f64() * 1e9 / evals
}

fn replay(w: &Workload, e: &WorkloadEntry, instances: &mut Instances) -> Result<Replay, String> {
    let spec = w.gpu_spec();
    let inst = instances.instance(&e.id);
    match w.backend {
        Backend::Native => replay_sa::<NativeGpu>(inst, e.iterations, e.seed, &spec),
        Backend::Sim => replay_sa::<Gpu>(inst, e.iterations, e.seed, &spec),
    }
    .map_err(|err| format!("replay: {err}"))
}

/// Run every per-layer measurement of `w` and report the per-layer metrics.
#[allow(clippy::too_many_lines)]
pub fn per_layer(
    w: &Workload,
    seed: u64,
    scale: &Scale,
    port_base: u16,
    spans: &mut Spans,
) -> Result<Report, String> {
    let (run_start, run_span) = (Instant::now(), spans.reserve());
    let phase_s = scale.seconds * LOADED_SHARE;
    let entries = w.entries(seed, w.requests(phase_s));
    let mut instances = Instances::default();
    let mut report = Report::default();

    // Loaded phases: untraced, then traced, each on a fresh fleet.
    let t = Instant::now();
    let plain = loaded(w, &entries, seed, port_base, false)?;
    let plain_span = spans.record(
        "loaded.untraced",
        Layer::Bench,
        (t, Instant::now()),
        run_span,
        None,
    );
    let t = Instant::now();
    let traced = loaded(w, &entries, seed, port_base, true)?;
    let traced_span = spans.record(
        "loaded.traced",
        Layer::Bench,
        (t, Instant::now()),
        run_span,
        None,
    );
    for (phase, parent) in [
        (&plain.measured.phase, plain_span),
        (&traced.measured.phase, traced_span),
    ] {
        for x in &phase.exchanges {
            spans.record(
                "request",
                Layer::Net,
                (x.start, x.done),
                parent,
                Some(x.idx),
            );
        }
        report.attempted += phase.attempted;
        report.failed += phase.failed();
    }
    report.failures.extend(verify::check_answers(
        &entries,
        &plain.measured.phase.exchanges,
        &mut instances,
    ));
    report.failures.extend(verify::cross_backend(
        w,
        &entries,
        &plain.measured.phase.exchanges,
        &mut instances,
    ));
    report.failures.extend(verify::check_answers(
        &entries,
        &traced.measured.phase.exchanges,
        &mut instances,
    ));
    let prefix = PINNED_PREFIX.min(plain.measured.phase.attempted);
    match (
        verify::outcome_hash(&entries, &plain.measured.phase.exchanges, prefix),
        verify::outcome_hash(&entries, &traced.measured.phase.exchanges, prefix),
    ) {
        (Ok(a), Ok(b)) if a == b => {}
        (Ok(a), Ok(b)) => report.failures.push(format!(
            "traced outcome hash {b:#018x} differs from untraced {a:#018x}"
        )),
        (Err(e), _) | (_, Err(e)) => report.failures.push(e),
    }

    // Peel: the same distinct requests through fewer and fewer layers.
    let (sample, keys) = distinct_sample(&entries, w.peel_sample);
    let (t, peel_span) = (Instant::now(), spans.reserve());
    let peeled = peel(
        w,
        &entries,
        &sample,
        &keys,
        seed,
        port_base,
        &mut instances,
        spans,
        peel_span,
    )?;
    spans.record_as(
        peel_span,
        "peel",
        Layer::Bench,
        (t, Instant::now()),
        run_span,
        None,
    );
    for (&idx, got) in sample.iter().zip(&peeled.answers) {
        for (level, other) in got.iter().enumerate().skip(1) {
            if *other != got[0] {
                report.failures.push(format!(
                    "peel request {idx}: {} answers {} where the full path answers {}",
                    LEVELS[level].0, other.0, got[0].0
                ));
            }
        }
    }
    let router_self = peeled.self_ms(0);
    let node_self = peeled.self_ms(1);
    let service_self = peeled.self_ms(2);
    let solve_ms = median(&peeled.latency_ms[3]).unwrap_or(0.0);
    let e2e_serial_ms = median(&peeled.latency_ms[0]).unwrap_or(0.0);
    let results = &peeled.results;

    // Replay: the SA kernel loop, launch by launch. The replay re-implements
    // the pipeline from its public parts, so a change to the pipeline can
    // make it diverge while the fleet's answers stay exact: divergence is a
    // warning and a parity share, not a correctness failure
    // (`tests/replay_parity.rs` holds the replay to byte identity).
    let mut replays = Vec::new();
    let mut replays_tried = 0usize;
    for (&idx, r) in sample.iter().zip(results) {
        let e = &entries[idx];
        if e.algorithm != Algorithm::Sa || replays_tried == w.replay_sample {
            continue;
        }
        replays_tried += 1;
        let t = Instant::now();
        let rep = match replay(w, e, &mut instances) {
            Ok(rep) => rep,
            Err(err) => {
                eprintln!("{}: warning: replay of request {idx} failed: {err}", w.name);
                continue;
            }
        };
        spans.record(
            "replay.sa",
            Layer::Gpu,
            (t, Instant::now()),
            run_span,
            Some(idx),
        );
        if rep.best != r.best.as_slice()
            || rep.objective != r.objective
            || rep.launches != r.kernel_launches
        {
            eprintln!(
                "{}: warning: replay of request {idx} differs from run_gpu_solve; \
                 the gpu.kernel.* timings describe the replay, not the pipeline",
                w.name
            );
            continue;
        }
        replays.push(rep);
    }
    #[allow(clippy::cast_precision_loss)]
    let replay_parity = replays.len() as f64 / replays_tried.max(1) as f64;
    let pooled = |f: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
        replays
            .iter()
            .flat_map(|r| f(r).iter().map(|s| s * 1e6))
            .collect()
    };
    let replay_wall: f64 = replays.iter().map(|r| r.wall_s).sum();
    let replay_unaccounted: f64 = replays
        .iter()
        .map(|r| r.unaccounted_frac() * r.wall_s)
        .sum();

    // Core and instance costs on the sample's own instances.
    let mut ns = Vec::with_capacity(sample.len());
    let mut instantiate_us = Vec::with_capacity(sample.len());
    for &idx in &sample {
        let id = entries[idx].id;
        let t = Instant::now();
        black_box(id.instantiate());
        instantiate_us.push(t.elapsed().as_secs_f64() * 1e6);
        ns.push(eval_ns(instances.instance(&id), seed ^ idx as u64));
    }
    #[allow(clippy::cast_precision_loss)]
    let floor_ns: f64 = results
        .iter()
        .zip(&ns)
        .map(|(r, ns)| r.evaluations as f64 * ns)
        .sum();
    let solve_ns: f64 = peeled.latency_ms[3].iter().map(|l| l * 1e6).sum();

    let p = &plain.measured.phase;
    let delta = |f: fn(&NodeStats) -> u64| f(&plain.after.router) - f(&plain.before.router);
    #[allow(clippy::cast_precision_loss)]
    let cache_served = (delta(|s| s.cache_hits) + delta(|s| s.coalesced)) as f64
        / delta(|s| s.submitted).max(1) as f64;
    let node_done: Vec<u64> = plain
        .after
        .nodes
        .iter()
        .zip(&plain.before.nodes)
        .map(|(a, b)| a.completed - b.completed)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let node_share_max = node_done.iter().copied().max().unwrap_or(0) as f64
        / node_done.iter().sum::<u64>().max(1) as f64;
    let answered: Vec<&Exchange> = p
        .exchanges
        .iter()
        .filter(|x| x.response.is_some())
        .collect();
    let bytes: usize = answered
        .iter()
        .map(|x| {
            exchange_frames(x, &entries[x.idx])
                .iter()
                .map(|f| f.encode().len())
                .sum::<usize>()
        })
        .sum();
    let (encode_us, decode_us) = codec_us(&entries, p);
    let admit: Vec<f64> = traced
        .measured
        .phase
        .exchanges
        .iter()
        .filter_map(admit_us)
        .collect();
    let waits: Vec<f64> = traced
        .measured
        .phase
        .exchanges
        .iter()
        .filter_map(queue_wait_ms)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let per_request = |v: f64| v / answered.len().max(1) as f64;
    #[allow(clippy::cast_precision_loss)]
    let launches_per_req = results
        .iter()
        .map(|r| r.kernel_launches as f64)
        .sum::<f64>()
        / results.len().max(1) as f64;

    report.push("net.router_self_ms", "ms", router_self);
    report.push("net.node_self_ms", "ms", node_self);
    report.push("net.node_admit_us", "us", median(&admit).unwrap_or(0.0));
    report.push("net.encode_us", "us", encode_us);
    report.push("net.decode_us", "us", decode_us);
    #[allow(clippy::cast_precision_loss)]
    report.push("net.bytes_per_req", "B", per_request(bytes as f64));
    #[allow(clippy::cast_precision_loss)]
    report.push(
        "net.threads_peak",
        "count",
        plain
            .measured
            .phase
            .threads_peak
            .max(traced.measured.phase.threads_peak) as f64,
    );
    report.push("service.self_ms", "ms", service_self);
    report.push(
        "service.queue_wait_p50_ms",
        "ms",
        median(&waits).unwrap_or(0.0),
    );
    report.push(
        "service.queue_wait_p95_ms",
        "ms",
        percentile(&waits, 0.95).unwrap_or(0.0),
    );
    report.push("service.cache_served_frac", "ratio", cache_served);
    report.push("service.worker_busy_frac", "ratio", plain.worker_busy);
    report.push("service.node_share_max", "ratio", node_share_max);
    report.push("gpu.solve_ms", "ms", solve_ms);
    report.push("gpu.launches_per_req", "count", launches_per_req);
    report.push(
        "gpu.host_setup_ms",
        "ms",
        mean(&replays.iter().map(|r| r.setup_s * 1e3).collect::<Vec<_>>()),
    );
    report.push(
        "gpu.transfer_us",
        "us",
        mean(
            &replays
                .iter()
                .map(|r| r.transfer_s * 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    report.push(
        "gpu.kernel.perturb_us",
        "us",
        median(&pooled(|r| &r.perturb_s)).unwrap_or(0.0),
    );
    report.push(
        "gpu.kernel.fitness_us",
        "us",
        median(&pooled(|r| &r.fitness_s)).unwrap_or(0.0),
    );
    report.push(
        "gpu.kernel.accept_us",
        "us",
        median(&pooled(|r| &r.accept_s)).unwrap_or(0.0),
    );
    report.push(
        "gpu.kernel.argmin_us",
        "us",
        median(&pooled(|r| &r.argmin_s)).unwrap_or(0.0),
    );
    report.push(
        "gpu.unaccounted_frac",
        "ratio",
        replay_unaccounted / replay_wall.max(f64::MIN_POSITIVE),
    );
    report.push("gpu.replay_parity_frac", "ratio", replay_parity);
    report.push("core.eval_ns", "ns", mean(&ns));
    report.push(
        "core.floor_frac",
        "ratio",
        floor_ns / solve_ns.max(f64::MIN_POSITIVE),
    );
    report.push("instances.instantiate_us", "us", mean(&instantiate_us));
    report.push(
        "bench.e2e_unaccounted_frac",
        "ratio",
        1.0 - (router_self + node_self + service_self + solve_ms)
            / e2e_serial_ms.max(f64::MIN_POSITIVE),
    );
    report.push(
        "bench.trace_overhead_frac",
        "ratio",
        1.0 - traced.measured.throughput_rps()
            / plain.measured.throughput_rps().max(f64::MIN_POSITIVE),
    );
    report.push(
        "bench.loadgen_lag_p95_ms",
        "ms",
        percentile(&plain.measured.phase.lags_ms, 0.95).unwrap_or(0.0),
    );
    spans.record_as(
        run_span,
        "run",
        Layer::Bench,
        (run_start, Instant::now()),
        0,
        None,
    );
    Ok(report)
}
