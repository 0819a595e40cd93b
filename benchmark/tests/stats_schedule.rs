//! The percentile rule and the open-loop schedule.

use cdd_e2e_bench::schedule::poisson_schedule;
use cdd_e2e_bench::stats::{median, percentile, tail_percentile, MIN_BEYOND};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 0.95), Some(95.0));
    assert_eq!(percentile(&v, 1.0), Some(100.0));
    assert_eq!(median(&v), Some(50.0));
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    let samples = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };
    // p95 of 200 samples is rank 190: exactly ten lie beyond it.
    assert_eq!(tail_percentile(&samples(200), 0.95), Ok(189.0));
    let err = tail_percentile(&samples(199), 0.95).unwrap_err();
    assert!(err.contains("leaves 9 beyond"), "{err}");
    assert!(tail_percentile(&[], 0.95).is_err());
    // p50 needs only 20 samples.
    assert!(tail_percentile(&samples(20), 0.5).is_ok());
    assert!(tail_percentile(&samples(19), 0.5).is_err());
}

#[test]
fn poisson_schedule_is_deterministic_per_seed() {
    let a = poisson_schedule(7, 250.0, 5000);
    assert_eq!(
        a,
        poisson_schedule(7, 250.0, 5000),
        "same seed, same schedule"
    );
    assert_ne!(a, poisson_schedule(8, 250.0, 5000), "the seed matters");
    assert_eq!(a.len(), 5000, "exactly the requested count");
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are in order");
    assert!(
        a[0] >= 0.0 && a[a.len() - 1] < 20.0,
        "all within count / rate seconds"
    );
    // Exponential gaps: mean 1/rate, coefficient of variation near 1.
    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    assert!((mean * 250.0 - 1.0).abs() < 0.01, "mean gap {mean}");
    assert!(
        (var.sqrt() / mean - 1.0).abs() < 0.1,
        "cv {}",
        var.sqrt() / mean
    );
    assert!(poisson_schedule(7, 250.0, 0).is_empty());
}
