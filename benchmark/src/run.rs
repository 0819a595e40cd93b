//! An end-to-end run: set the fleet up several times, measure one loaded
//! phase through the router, and check every answer.
//!
//! The benchmark runs on virtual machines whose CPUs the host shares with
//! other guests, and two of their effects stretch the durations the fleet
//! measures. The hypervisor withholds time while the CPUs want to run
//! (`steal` in `/proc/stat`): on a shared two-vCPU host from under 1 % to
//! a third of that time from one run to the next. And while the CPUs do
//! run, the other guests' load slows them (see [`crate::speed`]); CPU time
//! excludes steal but not this. So:
//!
//! * set-up and a closed loop keep the CPUs busy, and their durations
//!   (set-up times, latencies, the wall behind throughput) are scaled by
//!   the share of the time the CPUs wanted to run that they did run, and
//!   divided by the host's slowdown;
//! * an open loop leaves the CPUs mostly idle, and a request's latency is
//!   mostly hand-offs between threads, each of which may wait for the
//!   hypervisor to run an idle CPU again. Its latencies are scaled by the
//!   running share but not divided by the slowdown, which tracks
//!   computation, not wake-ups: on the shared host dividing by it widened
//!   the spread of ten runs' p50 from 0.07 to 0.17. Its wall is set by its
//!   arrival schedule, so its throughput is not scaled;
//! * CPU time per request is divided by the slowdown.
//!
//! On a quiet host of the reference speed every factor is 1.

use crate::fleet::Fleet;
use crate::loadgen::{self, ClosedLoop, Phase};
use crate::procfs;
use crate::report::Report;
use crate::schedule::poisson_schedule;
use crate::speed::Sampler;
use crate::stats::{median, tail_percentile};
use crate::verify::{self, Instances};
use crate::workloads::{warmup_entries, Arrivals, Scale, Workload};
use cdd_bench::workload::WorkloadEntry;
use std::time::Instant;

/// A loaded phase and what brings its durations to the reference host.
pub(crate) struct Measured {
    pub(crate) phase: Phase,
    /// Whether the phase was a closed loop.
    closed: bool,
    /// Share of the time the machine's CPUs wanted to run during the phase
    /// that they did run.
    running: f64,
    /// The host's slowdown over the run ([`crate::speed::HostSpeed`]); 1
    /// where it was not sampled.
    slowdown: f64,
}

impl Measured {
    /// What a wall-clock duration of the phase is multiplied by to take the
    /// stolen time out and, in a closed loop, bring it to the reference
    /// host's speed (see the module documentation).
    fn scale(&self) -> f64 {
        if self.closed {
            self.running / self.slowdown
        } else {
            self.running
        }
    }

    /// Latencies of the answered requests, scaled, milliseconds.
    pub(crate) fn latencies_ms(&self) -> Vec<f64> {
        let scale = self.scale();
        self.phase
            .latencies_ms()
            .into_iter()
            .map(|l| l * scale)
            .collect()
    }

    /// Answered requests per second; a closed loop's wall is scaled.
    pub(crate) fn throughput_rps(&self) -> f64 {
        if self.closed {
            self.phase.throughput_rps() / self.scale()
        } else {
            self.phase.throughput_rps()
        }
    }
}

/// Drive one loaded phase through `addr`: every request of `entries` in the
/// workload's open or closed loop.
pub(crate) fn measure(
    w: &Workload,
    addr: &str,
    entries: &[WorkloadEntry],
    seed: u64,
    traced: bool,
) -> Result<Measured, String> {
    let before = procfs::cpu_ticks();
    let phase = match w.arrivals {
        Arrivals::Open => {
            let schedule = poisson_schedule(seed, w.rate_per_s, entries.len());
            loadgen::open_loop(addr, entries, &schedule, traced)
        }
        Arrivals::Closed {
            connections,
            window,
        } => loadgen::closed_loop(
            addr,
            entries,
            &ClosedLoop {
                connections,
                window,
                traced,
            },
        ),
    }?;
    let running = procfs::CpuTicks::since(before)
        .running_share()
        .max(f64::MIN_POSITIVE);
    Ok(Measured {
        phase,
        closed: matches!(w.arrivals, Arrivals::Closed { .. }),
        running,
        slowdown: 1.0,
    })
}

/// Run `w` end to end at `scale` and report the end-to-end metrics.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    scale: &Scale,
    port_base: u16,
) -> Result<Report, String> {
    let entries = w.entries(seed, w.requests(scale.seconds));
    let warmup = warmup_entries(seed);
    let started = Instant::now();
    let sampler = Sampler::start();

    // Set-up is measured several times, each fleet torn down before the
    // next boots, and reported as the median. Half of the set-ups run
    // before the measured phase (the last fleet is measured) and half after
    // it, so the median spans the whole run.
    let mut setups = Vec::with_capacity(scale.setup_reps);
    let mut setup_ticks = procfs::CpuTicks::default();
    let mut set_up_once = || -> Result<Fleet, String> {
        let (t, ticks) = (Instant::now(), procfs::cpu_ticks());
        let fleet = Fleet::ready(w, port_base, true, &warmup)?;
        setups.push(t.elapsed().as_secs_f64());
        setup_ticks.add_since(ticks);
        Ok(fleet)
    };
    let mut fleet = set_up_once()?;
    for _ in 1..scale.setup_reps.div_ceil(2) {
        fleet.shutdown();
        fleet = set_up_once()?;
    }
    let router = fleet.router_addr.clone().expect("the fleet is routed");
    let set_up = Instant::now();

    let cpu_before = procfs::cpu_seconds();
    let measured = measure(w, &router, &entries, seed, false);
    let cpu_s = procfs::cpu_seconds() - cpu_before;
    let peak_rss = procfs::peak_rss_mib();
    fleet.shutdown();
    let mut measured = measured?;
    let loaded = Instant::now();
    for _ in 0..scale.setup_reps / 2 {
        set_up_once()?.shutdown();
    }
    let set_up_s = set_up.duration_since(started) + loaded.elapsed();
    let speed = sampler.finish();
    measured.slowdown = speed.slowdown;
    let checked = Instant::now();

    let phase = &measured.phase;
    let mut report = Report {
        attempted: phase.attempted,
        failed: phase.failed(),
        ..Report::default()
    };
    let latencies = measured.latencies_ms();
    #[allow(clippy::cast_precision_loss)]
    let answered = phase.answered().max(1) as f64;
    report.push(
        "setup_s",
        "s",
        median(&setups).expect("at least one set-up ran") * setup_ticks.running_share()
            / speed.slowdown,
    );
    report.push("throughput_rps", "req/s", measured.throughput_rps());
    report.push(
        "latency_p50_ms",
        "ms",
        median(&latencies).unwrap_or(f64::NAN),
    );
    report.push(
        "cpu_ms_per_req",
        "ms",
        cpu_s * 1e3 / answered / speed.slowdown,
    );
    report.push("peak_rss_mb", "MiB", peak_rss);

    let mut instances = Instances::default();
    report.failures.extend(verify::check_answers(
        &entries,
        &phase.exchanges,
        &mut instances,
    ));
    if seed == verify::DEFAULT_SEED && !scale.smoke {
        match verify::outcome_hash(&entries, &phase.exchanges, verify::PINNED_PREFIX) {
            Ok(hash) => report.failures.extend(verify::check_pin(w.name, hash)),
            Err(e) => report.failures.push(e),
        }
    }
    // The tail is reported here, not as a bounded metric: see README.md.
    let p95 = match tail_percentile(&latencies, 0.95) {
        Ok(p95) => format!("{p95:.3} ms over {} samples", latencies.len()),
        Err(e) => format!("not reported ({e})"),
    };
    eprintln!(
        "{}: {} set-ups {:.1} s, loaded phase {:.1} s ({} requests; {:.1} % of the time the \
         CPUs wanted to run was stolen; host slowdown {:.3} over {} samples; unscaled p50 \
         {:.3} ms and CPU {:.3} ms per request; scaled p95 {p95}), checks {:.1} s",
        w.name,
        setups.len(),
        set_up_s.as_secs_f64(),
        loaded.duration_since(set_up).as_secs_f64(),
        phase.attempted,
        (1.0 - measured.running) * 100.0,
        speed.slowdown,
        speed.samples,
        median(&phase.latencies_ms()).unwrap_or(f64::NAN),
        cpu_s * 1e3 / answered,
        checked.elapsed().as_secs_f64(),
    );
    Ok(report)
}
