//! Order statistics and hashing shared by every metric the benchmark
//! reports.

/// Samples a reported tail percentile needs strictly beyond it. A p95 over
/// fewer than 200 samples would rest on fewer than ten observations, so it
/// is refused rather than reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` sorted samples. The small
/// epsilon keeps `0.95 × 200` at rank 190 despite binary rounding.
fn rank(n: usize, q: f64) -> usize {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile (`q` in `(0, 1]`); `None` for no samples.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Nearest-rank median; `None` for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The tail percentile an end-to-end latency metric reports: refused
/// unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let beyond = n - if n == 0 { 0 } else { rank(n, q) };
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {beyond} beyond it; at least {MIN_BEYOND} are required",
            q * 100.0
        ));
    }
    Ok(percentile(samples, q).expect("non-empty: samples lie beyond the rank"))
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub(crate) fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = samples.len() as f64;
    samples.iter().sum::<f64>() / n
}

/// FNV-1a, 64 bit: the outcome-hash function of the correctness gate.
#[must_use]
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 step: the benchmark's own deterministic draw stream.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
