//! The host's speed while a run measures.
//!
//! The benchmark runs on virtual CPUs whose physical cores other guests
//! share. Their load changes how many instructions per second the fleet's
//! threads retire, by up to a fifth from one half-minute to the next on a
//! shared two-vCPU host, and with it every duration the fleet measures —
//! CPU time included, so taking out stolen time (see [`crate::run`]) does
//! not remove it. A sampler thread therefore times a fixed reference
//! computation every [`SAMPLE_EVERY`] by its own on-CPU time
//! (`CLOCK_THREAD_CPUTIME_ID`, which leaves out time spent waiting for a
//! CPU), and the run's slowdown is the median of those times over the
//! reference value. The computation is the benchmark's own code, not the
//! solver's, so a change to the solver moves the fleet's durations but
//! never the reference.

use crate::stats::{median, splitmix64};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the sampler times the reference computation.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// Jobs of the reference schedule.
const JOBS: usize = 256;

/// Passes over the reference schedule per sample (about 0.4 ms).
const PASSES: i64 = 600;

/// On-CPU seconds of one sample on the reference host (a shared two-vCPU
/// x86-64 VM at 2.1 GHz): the speed the end-to-end metrics are reported
/// at.
const REFERENCE_SAMPLE_S: f64 = 4.0e-4;

/// Processing times, earliness and tardiness weights of the reference
/// schedule, in sequence order.
struct Schedule {
    p: Vec<i64>,
    alpha: Vec<i64>,
    beta: Vec<i64>,
}

impl Schedule {
    fn new() -> Self {
        let mut state = 0x5EED_5BEE_D000_0001;
        let mut draw = |hi: u64| i64::try_from(1 + splitmix64(&mut state) % hi).expect("small");
        let mut s = Schedule {
            p: Vec::with_capacity(JOBS),
            alpha: Vec::with_capacity(JOBS),
            beta: Vec::with_capacity(JOBS),
        };
        for _ in 0..JOBS {
            s.p.push(draw(20));
            s.alpha.push(draw(10));
            s.beta.push(draw(15));
        }
        s
    }

    /// Weighted earliness and tardiness of the schedule against every due
    /// date of one pass each: the shape of the solvers' inner loop.
    fn cost(&self) -> i64 {
        let total: i64 = self.p.iter().sum();
        let mut sum = 0i64;
        for pass in 0..PASSES {
            let due = black_box(total * (pass % 8 + 1) / 10);
            let mut completion = 0i64;
            for ((p, a), b) in self.p.iter().zip(&self.alpha).zip(&self.beta) {
                completion += p;
                sum =
                    sum.wrapping_add(a * (due - completion).max(0) + b * (completion - due).max(0));
            }
        }
        sum
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` of Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// On-CPU seconds of the calling thread so far; `None` if the clock cannot
/// be read. (`/proc/thread-self/schedstat` is only brought up to date at
/// scheduler ticks, too coarse for a sample.)
fn thread_cpu_s() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for this target.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    #[allow(clippy::cast_precision_loss)]
    let seconds = ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
    (rc == 0).then_some(seconds)
}

/// The host's speed over a stretch of a run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HostSpeed {
    /// On-CPU time of one sample over [`REFERENCE_SAMPLE_S`] (median over
    /// the samples): 1.2 means the host ran the reference 20 % slower than
    /// the reference host. A duration the fleet spent on work, divided by
    /// this, is that duration at the reference host's speed. 1 where no
    /// sample could be taken.
    pub(crate) slowdown: f64,
    /// Samples taken.
    pub(crate) samples: usize,
}

/// A running sampler thread; [`Sampler::finish`] (or dropping it) stops it
/// and waits for it to end.
pub(crate) struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<f64>>>,
}

impl Sampler {
    /// Start sampling on a thread of its own.
    pub(crate) fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("host-speed".to_string())
            .spawn(move || {
                let schedule = Schedule::new();
                let mut samples = Vec::new();
                while !flag.load(Ordering::Relaxed) {
                    let before = thread_cpu_s();
                    black_box(schedule.cost());
                    if let (Some(a), Some(b)) = (before, thread_cpu_s()) {
                        samples.push(b - a);
                    }
                    std::thread::park_timeout(SAMPLE_EVERY);
                }
                samples
            })
            .expect("spawn the host-speed sampler");
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop sampling and return the host's speed over the samples taken.
    pub(crate) fn finish(mut self) -> HostSpeed {
        let samples = self.stop_and_join();
        HostSpeed {
            slowdown: median(&samples)
                .map_or(1.0, |s| (s / REFERENCE_SAMPLE_S).max(f64::MIN_POSITIVE)),
            samples: samples.len(),
        }
    }

    fn stop_and_join(&mut self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map(|h| {
                h.thread().unpark();
                h.join().expect("host-speed sampler panicked")
            })
            .unwrap_or_default()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_fixed() {
        assert_eq!(Schedule::new().cost(), Schedule::new().cost());
    }

    #[test]
    fn sampler_measures_until_finished() {
        let sampler = Sampler::start();
        std::thread::sleep(Duration::from_millis(350));
        let speed = sampler.finish();
        assert!(speed.samples >= 2, "{speed:?}");
        assert!(
            speed.slowdown.is_finite() && speed.slowdown > 0.0,
            "{speed:?}"
        );
    }
}
