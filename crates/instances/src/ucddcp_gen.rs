//! UCDDCP benchmark instances, following Awasthi et al. \[8\].
//!
//! Reference \[8\] derives its controllable-processing-time instances from the
//! same OR-library job data, adding a minimum processing time `Mᵢ`, a
//! compression penalty `γᵢ` and an unrestricted due date. We reproduce that
//! construction deterministically:
//!
//! * `Mᵢ ~ U[1, Pᵢ]` — every job retains at least one time unit,
//! * `γᵢ ~ U[1, 10]` — same magnitude as the earliness rates,
//! * `d = Σ Pᵢ + U[0, ⌊Σ Pᵢ / 4⌋]` — unrestricted with moderate slack.
//!
//! The extension RNG is seeded independently of the base-data RNG so CDD and
//! UCDDCP instances of the same `(n, k)` share identical `P`, `α`, `β`.

use crate::biskup_feldmann::{instance_seed, raw_job_data};
use cdd_core::{Instance, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Compression penalty rate bounds.
pub const COMPRESSION_RANGE: (Time, Time) = (1, 10);

/// Generate UCDDCP benchmark instance `(n, k)`.
///
/// # Panics
/// Panics if `n == 0` or `k ∉ 1..=10` (as for the CDD generator).
pub fn ucddcp_instance(n: usize, k: u32) -> Instance {
    let raw = raw_job_data(n, k);
    let mut rng = StdRng::seed_from_u64(instance_seed(0x000C_0FFE_ECDD, n, k));
    let min_processing: Vec<Time> =
        raw.processing.iter().map(|&p| rng.gen_range(1..=p)).collect();
    let compression: Vec<Time> =
        (0..n).map(|_| rng.gen_range(COMPRESSION_RANGE.0..=COMPRESSION_RANGE.1)).collect();
    let total = raw.total_processing();
    let d = total + rng.gen_range(0..=total / 4);
    Instance::ucddcp_from_arrays(
        &raw.processing,
        &min_processing,
        &raw.earliness,
        &raw.tardiness,
        &compression,
        d,
    )
    .expect("generated data is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::ProblemKind;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(ucddcp_instance(50, 7), ucddcp_instance(50, 7));
    }

    #[test]
    fn instances_are_unrestricted_ucddcp() {
        for k in 1..=10 {
            let inst = ucddcp_instance(20, k);
            assert_eq!(inst.kind(), ProblemKind::Ucddcp);
            assert!(inst.is_unrestricted());
            assert!(inst.due_date() >= inst.total_processing());
        }
    }

    #[test]
    fn shares_base_data_with_cdd_generator() {
        let cdd = crate::biskup_feldmann::cdd_instance(30, 4, 0.6);
        let uc = ucddcp_instance(30, 4);
        for i in 0..30 {
            assert_eq!(cdd.job(i).processing, uc.job(i).processing);
            assert_eq!(cdd.job(i).earliness_penalty, uc.job(i).earliness_penalty);
            assert_eq!(cdd.job(i).tardiness_penalty, uc.job(i).tardiness_penalty);
        }
    }

    #[test]
    fn compression_fields_respect_bounds() {
        let inst = ucddcp_instance(200, 2);
        for job in inst.jobs() {
            assert!(job.min_processing >= 1 && job.min_processing <= job.processing);
            assert!((1..=10).contains(&job.compression_penalty));
        }
    }

    #[test]
    fn some_jobs_are_compressible() {
        // Statistically certain for n = 200: at least one job with Mᵢ < Pᵢ.
        let inst = ucddcp_instance(200, 5);
        assert!(inst.jobs().iter().any(|j| j.max_compression() > 0));
    }
}
