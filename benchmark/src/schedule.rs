//! The open-loop arrival schedule.

use crate::stats::splitmix64;

/// Arrival offsets, in seconds from the start of the phase, of a Poisson
/// process at `rate_per_s` conditioned on exactly `count` arrivals in
/// `[0, count / rate_per_s)`.
///
/// Given its count, a Poisson process's arrivals are uniform order
/// statistics; they are drawn here as normalized partial sums of `count + 1`
/// exponential gaps. Fixing the count keeps the offered load identical
/// across seeds, so only the arrival pattern varies with the seed.
#[must_use]
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<f64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut state = seed ^ 0x0A11_1BA1_5EED;
    let gaps: Vec<f64> = (0..=count)
        .map(|_| {
            #[allow(clippy::cast_precision_loss)]
            let u = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            -(1.0 - u).ln()
        })
        .collect();
    let total: f64 = gaps.iter().sum();
    #[allow(clippy::cast_precision_loss)]
    let span = count as f64 / rate_per_s;
    let mut acc = 0.0;
    gaps[..count]
        .iter()
        .map(|g| {
            acc += g;
            acc / total * span
        })
        .collect()
}
