//! Deterministic fault injection for the simulated GPU.
//!
//! The paper's target device (GeForce GT 560M) is a consumer part without
//! ECC on its GDDR5, and long metaheuristic campaigns are exactly the
//! workloads where launch hiccups, soft memory errors and wedged kernels
//! surface. This module lets the simulator *inject* those failures
//! deterministically so the recovery layers above it (retry, CPU-oracle
//! re-validation, CPU fallback, resumable campaign journal) can be tested
//! end to end:
//!
//! * **Transient launch failures** — a launch aborts before any thread runs
//!   ([`crate::LaunchError::TransientFault`]); device memory is untouched,
//!   so a retry is safe.
//! * **Silent bit flips** — a global-memory *read* returns the stored word
//!   with one bit inverted (memory itself stays intact — a transient read
//!   error, the non-ECC GDDR model). Constant memory (broadcast cache),
//!   atomics (L2-serialized) and PCIe transfers (link-level CRC) stay
//!   clean.
//! * **Hung kernels** — the launch executes but its modeled time is
//!   inflated past the watchdog budget
//!   (`watchdog_factor × model_kernel_time`), so the engine reports
//!   [`crate::LaunchError::KernelTimeout`] as a driver watchdog kill would.
//! * **Worker crashes** — the whole device dies at a launch index drawn
//!   once at plan installation ([`crate::LaunchError::DeviceLost`]); every
//!   launch from that index on fails until a fresh plan (a fresh device) is
//!   installed. This is the chaos class the service's supervision layer
//!   recovers from (DESIGN.md §12).
//!
//! All decisions come from private SplitMix64 streams seeded by
//! [`FaultPlan::seed`]. Launch-level decisions (failure, hang) advance one
//! stream once per launch. Read-side bit flips are *pre-drawn per launch,
//! per simulated thread*: when a plan with a non-zero flip rate executes a
//! launch, a per-launch salt is drawn from a second stream, and every
//! simulated thread derives its own flip stream from
//! `(salt, global thread id)`. Execution order therefore cannot perturb
//! any decision (DESIGN.md §11), and the same plan over the same operation
//! sequence reproduces the exact same faults, which is what makes failure
//! campaigns replayable.

use cdd_metrics::MetricsRegistry;
use std::fmt;
use std::ops::AddAssign;

/// SplitMix64 step (the same finalizer the RNG seeding uses elsewhere).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform f64 in `[0, 1)` from a SplitMix64 draw.
#[inline]
fn unit_f64(draw: u64) -> f64 {
    (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded, deterministic fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the two private decision streams.
    pub seed: u64,
    /// Probability that a launch fails before executing.
    pub launch_failure_rate: f64,
    /// Probability that a single global-memory read returns a word with one
    /// flipped bit.
    pub bit_flip_rate: f64,
    /// Probability that a launch hangs (its modeled time is inflated by
    /// [`hang_slowdown`](Self::hang_slowdown)).
    pub hang_rate: f64,
    /// Watchdog budget as a multiple of the clean modeled kernel time.
    pub watchdog_factor: f64,
    /// Slowdown factor applied to a hung kernel's modeled time. A hang is
    /// killed by the watchdog iff `hang_slowdown > watchdog_factor`.
    pub hang_slowdown: f64,
    /// Probability that the device dies wholesale while this plan is
    /// installed ([`crate::LaunchError::DeviceLost`]). The decision — and
    /// the launch index at which death strikes — is drawn **once, at plan
    /// installation**, from a dedicated stream, so a crash is a property of
    /// the plan seed, not of how many launches happen to have run: a
    /// service that re-derives the same per-request plan reproduces the
    /// same crash no matter which worker executes it.
    pub worker_crash_rate: f64,
    /// Upper bound (exclusive) of the drawn crash launch index. A crash
    /// only fires if the workload actually reaches that launch, so the
    /// horizon should sit well below the launches a typical run performs.
    pub worker_crash_horizon: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a baseline).
    pub fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            launch_failure_rate: 0.0,
            bit_flip_rate: 0.0,
            hang_rate: 0.0,
            watchdog_factor: 8.0,
            hang_slowdown: 1e4,
            worker_crash_rate: 0.0,
            worker_crash_horizon: 128,
        }
    }

    /// A plan with the given rates and default watchdog geometry.
    pub fn with_rates(seed: u64, launch_failure: f64, bit_flip: f64, hang: f64) -> Self {
        FaultPlan {
            seed,
            launch_failure_rate: launch_failure,
            bit_flip_rate: bit_flip,
            hang_rate: hang,
            ..Self::disabled()
        }
    }

    /// The same plan under a different seed (used to decorrelate retries of
    /// a whole device attempt and per-cell campaign plans).
    pub fn reseeded(&self, seed: u64) -> Self {
        FaultPlan { seed, ..self.clone() }
    }

    /// The same plan with a worker-crash class added (death with
    /// probability `rate`, at a launch index drawn in `[0, horizon)`).
    #[must_use]
    pub fn with_worker_crash(mut self, rate: f64, horizon: u64) -> Self {
        self.worker_crash_rate = rate;
        self.worker_crash_horizon = horizon.max(1);
        self
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.launch_failure_rate > 0.0
            || self.bit_flip_rate > 0.0
            || self.hang_rate > 0.0
            || self.worker_crash_rate > 0.0
    }
}

/// Counters of what a [`FaultState`] actually injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Launches attempted while the plan was installed.
    pub launches_attempted: u64,
    /// Launches aborted with a transient failure.
    pub transient_launch_failures: u64,
    /// Global-memory reads that returned a flipped word.
    pub bit_flips: u64,
    /// Launches killed by the watchdog.
    pub hung_kernels: u64,
    /// Whole-device deaths injected (at most one per installed plan — a
    /// lost device stays lost until a fresh plan is installed).
    pub worker_crashes: u64,
}

impl FaultStats {
    /// Fold the counters into a metrics registry as
    /// `{prefix}_launches_attempted_total`, `{prefix}_transient_launch_failures_total`,
    /// `{prefix}_bit_flips_total` and `{prefix}_hung_kernels_total`, all
    /// carrying `labels`. Zero counts are still registered (an `inc` by 0
    /// creates the series), so the *set* of rendered lines is identical
    /// across runs — a requirement for byte-comparing snapshots.
    pub fn observe_into(
        &self,
        registry: &mut MetricsRegistry,
        prefix: &str,
        labels: &[(&str, &str)],
    ) {
        let name = |suffix: &str| format!("{prefix}_{suffix}");
        registry.inc(&name("launches_attempted_total"), labels, self.launches_attempted);
        registry.inc(
            &name("transient_launch_failures_total"),
            labels,
            self.transient_launch_failures,
        );
        registry.inc(&name("bit_flips_total"), labels, self.bit_flips);
        registry.inc(&name("hung_kernels_total"), labels, self.hung_kernels);
        registry.inc(&name("worker_crashes_total"), labels, self.worker_crashes);
    }
}

/// Field-wise sum, for folding per-attempt or per-device counters together.
impl AddAssign for FaultStats {
    fn add_assign(&mut self, other: FaultStats) {
        self.launches_attempted += other.launches_attempted;
        self.transient_launch_failures += other.transient_launch_failures;
        self.bit_flips += other.bit_flips;
        self.hung_kernels += other.hung_kernels;
        self.worker_crashes += other.worker_crashes;
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} launches: {} transient failures, {} watchdog kills, {} bit flips, {} worker crashes",
            self.launches_attempted,
            self.transient_launch_failures,
            self.hung_kernels,
            self.bit_flips,
            self.worker_crashes
        )
    }
}

/// Runtime state of an installed plan: the two decision streams plus the
/// injection counters. Owned by [`crate::Gpu`]; one per device.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    /// Stream advanced once per launch-level decision (failure, hang).
    launch_stream: u64,
    /// Stream advanced once per *executed* launch (when the flip rate is
    /// non-zero) to draw that launch's read-fault salt. Keeping it separate
    /// means the number of reads a kernel performs cannot perturb
    /// launch-level decisions (and vice versa) — and because each thread's
    /// flips derive from the salt rather than a shared serial stream, the
    /// host-side block schedule cannot perturb them either.
    read_stream: u64,
    /// Launch index at which the device dies, pre-drawn at installation
    /// from a third stream (`None` = this plan never crashes the device).
    crash_at: Option<u64>,
    /// Latched once the crash fires: every subsequent launch on this state
    /// reports the device as lost (a dead device does not come back until a
    /// fresh plan — i.e. a fresh device — is installed).
    lost: bool,
    /// What was injected so far.
    pub stats: FaultStats,
}

/// Per-launch read-fault parameters: the salt every simulated thread mixes
/// with its global id to get its private flip stream. Pre-drawn by
/// [`FaultState::launch_read_faults`] before any block executes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadFaultCfg {
    pub(crate) salt: u64,
    rate: f64,
}

impl ReadFaultCfg {
    /// A config that never flips. Installed when a plan is active but its
    /// flip rate is zero, so kernels still see
    /// [`crate::ThreadCtx::fault_injection_active`] without any stream
    /// being consumed.
    pub(crate) fn inert() -> Self {
        ReadFaultCfg { salt: 0, rate: 0.0 }
    }
}

/// One simulated thread's private read-fault stream for one launch.
/// Deterministic in `(plan seed, launch index, global thread id, read
/// index)` — independent of which host thread runs the block and of what
/// other blocks do.
#[derive(Debug)]
pub(crate) struct ReadFaultStream {
    state: u64,
    rate: f64,
    /// Flips this thread produced; folded into
    /// [`FaultStats::bit_flips`] when the launch's blocks are merged.
    pub(crate) flips: u64,
}

impl ReadFaultStream {
    /// The flip stream of simulated thread `global_thread` under `cfg`.
    pub(crate) fn for_thread(cfg: ReadFaultCfg, global_thread: u64) -> Self {
        let mut state = cfg.salt ^ global_thread.wrapping_mul(0x9e3779b97f4a7c15);
        splitmix64(&mut state); // decorrelate adjacent thread ids
        ReadFaultStream { state, rate: cfg.rate, flips: 0 }
    }

    /// Per-read decision: pass `bits` through, or flip one bit of it.
    /// `width_bits` bounds the flipped position to the value's meaningful
    /// low bits (a `u32` buffer only has 32 payload bits per word).
    #[inline]
    pub(crate) fn observe_read(&mut self, bits: u64, width_bits: u32) -> u64 {
        if self.rate <= 0.0 {
            return bits;
        }
        let draw = splitmix64(&mut self.state);
        if unit_f64(draw) >= self.rate {
            return bits;
        }
        self.flips += 1;
        // Reuse the draw's untouched low bits to pick the position.
        let bit = (draw % width_bits.max(1) as u64) as u32;
        bits ^ 1u64 << bit
    }
}

impl FaultState {
    /// Install `plan` with fresh streams and zeroed counters.
    pub fn new(plan: FaultPlan) -> Self {
        let mut seed = plan.seed;
        let launch_stream = splitmix64(&mut seed);
        let read_stream = splitmix64(&mut seed);
        // The crash decision consumes a *third* derivation — drawn after
        // the two streams above so plans without a crash class keep their
        // historical launch/read sequences byte-identical.
        let mut crash_stream = splitmix64(&mut seed);
        let crash_at = (plan.worker_crash_rate > 0.0
            && unit_f64(splitmix64(&mut crash_stream)) < plan.worker_crash_rate)
            .then(|| splitmix64(&mut crash_stream) % plan.worker_crash_horizon.max(1));
        FaultState {
            plan,
            launch_stream,
            read_stream,
            crash_at,
            lost: false,
            stats: FaultStats::default(),
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Pre-launch check: is the device dead (or dying at exactly this
    /// launch index)? Called before any other per-launch decision; a lost
    /// device consumes no streams and counts no attempt, so the launch
    /// sequence up to the crash is unchanged by the crash class.
    pub(crate) fn draw_device_lost(&mut self) -> bool {
        if self.lost {
            return true;
        }
        match self.crash_at {
            Some(at) if self.stats.launches_attempted >= at => {
                self.lost = true;
                self.stats.worker_crashes += 1;
                true
            }
            _ => false,
        }
    }

    /// Per-launch decision: should this launch fail transiently?
    pub(crate) fn draw_launch_failure(&mut self) -> bool {
        self.stats.launches_attempted += 1;
        if self.plan.launch_failure_rate <= 0.0 {
            return false;
        }
        let fail = unit_f64(splitmix64(&mut self.launch_stream)) < self.plan.launch_failure_rate;
        if fail {
            self.stats.transient_launch_failures += 1;
        }
        fail
    }

    /// Per-launch decision: does this launch hang? (Counted as a hung
    /// kernel only when the engine's watchdog actually kills it.)
    pub(crate) fn draw_hang(&mut self) -> bool {
        if self.plan.hang_rate <= 0.0 {
            return false;
        }
        unit_f64(splitmix64(&mut self.launch_stream)) < self.plan.hang_rate
    }

    /// Record a watchdog kill.
    pub(crate) fn record_watchdog_kill(&mut self) {
        self.stats.hung_kernels += 1;
    }

    /// Pre-draw this launch's read-fault salt. Called once per *executed*
    /// launch (after the failure/hang decisions; failed launches perform no
    /// reads and must not advance the stream). `None` when the plan cannot
    /// flip bits — so flip-free plans leave the stream untouched forever
    /// and their launch-failure sequences stay comparable across engines.
    pub(crate) fn launch_read_faults(&mut self) -> Option<ReadFaultCfg> {
        if self.plan.bit_flip_rate <= 0.0 {
            return None;
        }
        let salt = splitmix64(&mut self.read_stream);
        Some(ReadFaultCfg { salt, rate: self.plan.bit_flip_rate })
    }

    /// Fold the flips counted by the per-thread streams of one launch into
    /// the stats (in block-index order, with the rest of the block merge).
    pub(crate) fn absorb_bit_flips(&mut self, flips: u64) {
        self.stats.bit_flips += flips;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_every_field() {
        let mut a = FaultStats {
            launches_attempted: 1,
            transient_launch_failures: 2,
            bit_flips: 3,
            hung_kernels: 4,
            worker_crashes: 5,
        };
        a += FaultStats {
            launches_attempted: 10,
            transient_launch_failures: 20,
            bit_flips: 30,
            hung_kernels: 40,
            worker_crashes: 50,
        };
        let want = FaultStats {
            launches_attempted: 11,
            transient_launch_failures: 22,
            bit_flips: 33,
            hung_kernels: 44,
            worker_crashes: 55,
        };
        assert_eq!(a, want);
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let mut s = FaultState::new(FaultPlan::disabled());
        for _ in 0..1000u64 {
            assert!(!s.draw_launch_failure());
            assert!(!s.draw_hang());
            assert!(s.launch_read_faults().is_none());
        }
        assert_eq!(s.stats, FaultStats { launches_attempted: 1000, ..Default::default() });
        assert!(!s.plan().is_active());
    }

    #[test]
    fn same_seed_reproduces_identical_fault_sequence() {
        let plan = FaultPlan::with_rates(42, 0.1, 0.05, 0.02);
        let run = |plan: &FaultPlan| {
            let mut s = FaultState::new(plan.clone());
            let mut trace = Vec::new();
            for i in 0..500u64 {
                let failed = s.draw_launch_failure();
                let hang = s.draw_hang();
                let mut words = Vec::new();
                if !failed {
                    // Two simulated threads, a few reads each.
                    if let Some(cfg) = s.launch_read_faults() {
                        let mut total = 0;
                        for gid in 0..2u64 {
                            let mut stream = ReadFaultStream::for_thread(cfg, gid);
                            for r in 0..5u64 {
                                words.push(stream.observe_read(i * 31 + r, 64));
                            }
                            total += stream.flips;
                        }
                        s.absorb_bit_flips(total);
                    }
                }
                trace.push((failed, hang, words));
            }
            (trace, s.stats)
        };
        let (t1, s1) = run(&plan);
        let (t2, s2) = run(&plan);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert!(s1.transient_launch_failures > 0, "rate 0.1 over 500 draws must fire");
        assert!(s1.bit_flips > 0);
        // A different seed produces a different sequence.
        let (t3, _) = run(&plan.reseeded(43));
        assert_ne!(t1, t3);
    }

    #[test]
    fn read_faults_do_not_perturb_launch_decisions() {
        let plan = FaultPlan::with_rates(7, 0.2, 0.5, 0.0);
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        let mut fa = Vec::new();
        let mut fb = Vec::new();
        for i in 0..100u64 {
            fa.push(a.draw_launch_failure());
            a.launch_read_faults();
            fb.push(b.draw_launch_failure());
            // b's threads perform plenty of reads; a's perform none. The
            // launch decisions must match regardless.
            if let Some(cfg) = b.launch_read_faults() {
                let mut stream = ReadFaultStream::for_thread(cfg, i);
                for k in 0..17 {
                    stream.observe_read(i * k, 64);
                }
            }
        }
        assert_eq!(fa, fb);
    }

    #[test]
    fn flips_respect_value_width() {
        let mut s = FaultState::new(FaultPlan::with_rates(3, 0.0, 1.0, 0.0));
        let cfg = s.launch_read_faults().expect("rate 1.0 yields a config");
        let mut stream = ReadFaultStream::for_thread(cfg, 0);
        for _ in 0..200 {
            let out = stream.observe_read(0, 32);
            assert!(out != 0, "rate 1.0 must flip");
            assert!(out < 1 << 32, "flip must stay in the 32 payload bits");
        }
        assert_eq!(stream.flips, 200);
        s.absorb_bit_flips(stream.flips);
        assert_eq!(s.stats.bit_flips, 200);
    }

    #[test]
    fn thread_streams_are_schedule_independent_and_decorrelated() {
        let mut s = FaultState::new(FaultPlan::with_rates(11, 0.0, 0.3, 0.0));
        let cfg = s.launch_read_faults().unwrap();
        let words = |gid: u64| {
            let mut stream = ReadFaultStream::for_thread(cfg, gid);
            (0..64u64).map(|r| stream.observe_read(r, 64)).collect::<Vec<_>>()
        };
        // Re-deriving a thread's stream reproduces it exactly, no matter
        // what other threads did in between (no shared state).
        let a0 = words(0);
        let _ = words(5);
        let _ = words(3);
        assert_eq!(a0, words(0));
        // Adjacent thread ids see different flips.
        assert_ne!(words(0), words(1));
        // A launch that flips nothing keeps the salt stream position: the
        // next salt depends only on how many flip-capable launches executed.
        let mut x = FaultState::new(FaultPlan::with_rates(11, 0.0, 0.3, 0.0));
        let mut y = FaultState::new(FaultPlan::with_rates(11, 0.0, 0.3, 0.0));
        let cx = (x.launch_read_faults().unwrap(), x.launch_read_faults().unwrap());
        let _ = ReadFaultStream::for_thread(cx.0, 9).observe_read(1, 64);
        let cy = (y.launch_read_faults().unwrap(), y.launch_read_faults().unwrap());
        assert_eq!(cx.1.salt, cy.1.salt);
    }

    #[test]
    fn observe_into_registers_all_series_even_at_zero() {
        let stats = FaultStats { launches_attempted: 7, bit_flips: 2, ..Default::default() };
        let mut reg = MetricsRegistry::new();
        stats.observe_into(&mut reg, "sim_fault", &[]);
        assert_eq!(reg.counter("sim_fault_launches_attempted_total", &[]), 7);
        assert_eq!(reg.counter("sim_fault_bit_flips_total", &[]), 2);
        // Zero counters still render, so snapshots of clean and faulty runs
        // expose the same line set.
        let text = reg.render_prometheus();
        assert!(text.contains("sim_fault_hung_kernels_total 0"));
        assert!(text.contains("sim_fault_transient_launch_failures_total 0"));
    }

    #[test]
    fn worker_crash_fires_once_at_the_drawn_index_and_latches() {
        // Rate 1.0: the crash is certain and the index is drawn in
        // [0, horizon). Replaying the same plan reproduces the same index.
        let plan = FaultPlan::with_rates(77, 0.0, 0.0, 0.0).with_worker_crash(1.0, 8);
        assert!(plan.is_active(), "a crash-only plan is still active");
        let crash_index = |plan: &FaultPlan| {
            let mut s = FaultState::new(plan.clone());
            let mut at = None;
            for i in 0..32u64 {
                if s.draw_device_lost() {
                    at.get_or_insert(i);
                } else {
                    assert!(!s.draw_launch_failure());
                }
            }
            assert_eq!(s.stats.worker_crashes, 1, "the crash is counted exactly once");
            at.expect("rate 1.0 must crash within the horizon")
        };
        let a = crash_index(&plan);
        assert_eq!(a, crash_index(&plan), "crash index is a pure function of the seed");
        assert!(a < 8, "index bounded by the horizon");
        // Once lost, the device stays lost.
        let mut s = FaultState::new(plan.clone());
        while !s.draw_device_lost() {
            s.draw_launch_failure();
        }
        for _ in 0..10 {
            assert!(s.draw_device_lost());
        }
        assert_eq!(s.stats.worker_crashes, 1);
        // A different seed draws a different fate/index eventually.
        let other = crash_index(&plan.reseeded(78));
        let _ = other; // may coincide for one seed; determinism is what matters
    }

    #[test]
    fn crash_class_does_not_perturb_other_fault_streams() {
        // The crash decision comes from a third derivation, so a plan with
        // the crash class produces the *same* launch-failure/hang/read
        // sequence as the same plan without it, up to the crash point.
        let base = FaultPlan::with_rates(13, 0.3, 0.2, 0.1);
        let crashy = base.clone().with_worker_crash(1.0, 1 << 60); // never reached
        let mut a = FaultState::new(base);
        let mut b = FaultState::new(crashy);
        for _ in 0..200u64 {
            assert!(!b.draw_device_lost(), "horizon far beyond the run");
            assert_eq!(a.draw_launch_failure(), b.draw_launch_failure());
            assert_eq!(a.draw_hang(), b.draw_hang());
            assert_eq!(
                a.launch_read_faults().map(|c| c.salt),
                b.launch_read_faults().map(|c| c.salt)
            );
        }
    }

    #[test]
    fn worker_crash_rate_scales_crash_probability() {
        let mut crashed = 0;
        for seed in 0..400u64 {
            let plan = FaultPlan::disabled().reseeded(seed).with_worker_crash(0.5, 4);
            let mut s = FaultState::new(plan);
            for _ in 0..8 {
                if s.draw_device_lost() {
                    break;
                }
                s.draw_launch_failure();
            }
            crashed += u64::from(s.stats.worker_crashes > 0);
        }
        let frac = crashed as f64 / 400.0;
        assert!((0.4..0.6).contains(&frac), "observed crash fraction {frac}");
    }

    #[test]
    fn rates_scale_counts() {
        let mut s = FaultState::new(FaultPlan::with_rates(9, 0.5, 0.0, 0.0));
        for _ in 0..2000 {
            s.draw_launch_failure();
        }
        let frac = s.stats.transient_launch_failures as f64 / 2000.0;
        assert!((0.4..0.6).contains(&frac), "observed failure fraction {frac}");
    }
}
