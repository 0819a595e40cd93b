//! The O(n) fixed-sequence optimizer for the **CDD** problem
//! (Lässig, Awasthi, Kramer 2014 — reference \[7\] of the paper).
//!
//! For a fixed job order, an optimal schedule has no machine idle time
//! between jobs (Cheng & Kahlbacher 1991), so it is fully described by the
//! start time `s ≥ 0` of the first job. The total penalty is a convex
//! piecewise-linear function of `s`, and an optimal schedule has either
//! `s = 0` or some job completing exactly at the due date (Hall, Kubiak &
//! Sethi 1991). The paper's Theorem 1 yields the O(n) procedure implemented
//! here:
//!
//! 1. Start every job as early as possible (`s = 0`); let `τ` be the last
//!    position completing at or before `d`, `pe = Σ α` over positions
//!    `1..=τ` and `pl = Σ β` over positions `τ+1..=n`.
//! 2. If `pl ≥ pe`, shifting right cannot improve: `s = 0` is optimal.
//! 3. Otherwise shift right so position `τ` completes exactly at `d`, then
//!    keep shifting job-by-job (each shift makes position `τ` tardy and
//!    aligns position `τ−1` with `d`) while the updated sums still satisfy
//!    `pl < pe`.
//!
//! The functions in this module operate on raw parallel arrays
//! (`P`, `α`, `β` indexed by *job id*, plus the sequence `position → job`)
//! so the identical code runs inside `cuda-sim` GPU kernels and on the CPU.

use crate::{Cost, Instance, JobSequence, Time};

/// Result of optimizing one job sequence for the CDD problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CddSequenceSolution {
    /// Minimal total weighted earliness/tardiness penalty.
    pub objective: Cost,
    /// Optimal start time of the first job (the right-shift applied to the
    /// packed-at-zero schedule).
    pub shift: Time,
    /// `r`: the number of sequence positions completing at or before the due
    /// date in the optimal schedule (1-based index of the *due-date
    /// position*). If `r > 0` and the schedule was shifted, position `r`
    /// completes exactly at `d`.
    pub due_position: usize,
}

/// Compute the optimal right-shift for a packed schedule of `seq` and the
/// resulting due-date position `r` (see [`CddSequenceSolution::due_position`]).
///
/// `p`, `alpha`, `beta` are indexed by **job id**; `seq[k]` is the job id
/// processed at position `k`. Runs in O(n) with zero allocation.
pub fn cdd_optimal_shift_raw(
    p: &[Time],
    alpha: &[Time],
    beta: &[Time],
    d: Time,
    seq: &[u32],
) -> (Time, usize) {
    // Pass 1: packed completion times; find τ (last position with C ≤ d)
    // and the penalty-rate sums on each side of the due date.
    let mut c: Time = 0;
    let mut tau: usize = 0;
    let mut c_tau: Time = 0;
    let mut pe: Time = 0;
    let mut pl: Time = 0;
    for (k, &j) in seq.iter().enumerate() {
        let j = j as usize;
        c += p[j];
        if c <= d {
            tau = k + 1;
            c_tau = c;
            pe += alpha[j];
        } else {
            pl += beta[j];
        }
    }
    if tau == 0 || pl >= pe {
        // All jobs tardy, or right-shifting gains nothing: packed is optimal.
        return (0, tau);
    }
    // Align position τ with the due date (gain (pe − pl) per unit shifted).
    let mut shift = d - c_tau;
    // Keep shifting while making position τ tardy still pays off
    // (Theorem 1, Case 2(ii)).
    while tau >= 1 {
        let j = seq[tau - 1] as usize;
        let pe_next = pe - alpha[j];
        let pl_next = pl + beta[j];
        if pl_next < pe_next {
            shift += p[j];
            pe = pe_next;
            pl = pl_next;
            tau -= 1;
        } else {
            break;
        }
    }
    (shift, tau)
}

/// Total CDD penalty of the packed schedule of `seq` right-shifted by
/// `shift`. O(n), zero allocation.
pub fn cdd_objective_with_shift(
    p: &[Time],
    alpha: &[Time],
    beta: &[Time],
    d: Time,
    seq: &[u32],
    shift: Time,
) -> Cost {
    let mut c = shift;
    let mut obj: Cost = 0;
    for &j in seq {
        let j = j as usize;
        c += p[j];
        if c < d {
            obj += alpha[j] * (d - c);
        } else {
            obj += beta[j] * (c - d);
        }
    }
    obj
}

/// Optimal CDD objective for one sequence, on raw arrays. This is the
/// *fitness function* evaluated by every metaheuristic thread (CPU and GPU).
///
/// Equal to [`cdd_optimal_shift_raw`] followed by
/// [`cdd_objective_with_shift`] (the reference pair, which also yields the
/// shift and due-date position), but reads each job once. With the
/// due-date position `r` fixed, positions `1..=r` complete at
/// `Cₖ + s ≤ d` and the rest at `Cₖ + s ≥ d` (`Cₖ` packed, `s` the
/// shift), so the penalty splits into running sums over the two sides:
///
/// ```text
/// Σ_{k≤r} αₖ(d − s − Cₖ) + Σ_{k>r} βₖ(Cₖ + s − d)
///   = (d − s)(pe − pl) − Σ_{k≤r} αₖCₖ + Σ_{k>r} βₖCₖ
/// ```
///
/// One forward pass over the packed schedule collects `τ`, `C_τ` and the
/// four sums; each Theorem-1 backtrack step moves position `τ` from the
/// early to the tardy side in O(1), and `d − s` is the packed completion
/// time of the final due-date position (`d` itself when nothing shifts).
/// The weighted sums can exceed the objective by far, so they accumulate
/// in wrapping `i64`: the identity holds modulo 2⁶⁴, which makes the
/// result exact whenever the objective itself fits.
///
/// `p`, `alpha`, `beta` are indexed by job id and processing times must be
/// non-negative (so the early side is a prefix). O(n), zero allocation.
///
/// # Panics
/// Panics if `seq` holds a job id outside the arrays.
pub fn cdd_objective_raw(p: &[Time], alpha: &[Time], beta: &[Time], d: Time, seq: &[u32]) -> Cost {
    // Forward pass, early side: positions completing at or before `d`.
    let n = seq.len();
    let mut tau = 0;
    let mut c_tau: Time = 0;
    let mut pe: Time = 0;
    let mut early_weighted: Cost = 0;
    while tau < n {
        let j = seq[tau] as usize;
        let c = c_tau + p[j];
        if c > d {
            break;
        }
        c_tau = c;
        pe += alpha[j];
        early_weighted = early_weighted.wrapping_add(alpha[j].wrapping_mul(c));
        tau += 1;
    }
    // Forward pass, tardy side: the remaining positions.
    let mut c = c_tau;
    let mut pl: Time = 0;
    let mut tardy_weighted: Cost = 0;
    for &j in &seq[tau..] {
        let j = j as usize;
        c += p[j];
        pl += beta[j];
        tardy_weighted = tardy_weighted.wrapping_add(beta[j].wrapping_mul(c));
    }

    // `d − s`: `d` for the packed schedule (all tardy, or shifting gains
    // nothing), else the packed completion of the final due-date position.
    let mut start_gap = d;
    if tau > 0 && pl < pe {
        // Align position τ with the due date, then keep making position τ
        // tardy while that still pays off (Theorem 1, Case 2(ii)).
        while tau >= 1 {
            let j = seq[tau - 1] as usize;
            let pe_next = pe - alpha[j];
            let pl_next = pl + beta[j];
            if pl_next >= pe_next {
                break;
            }
            pe = pe_next;
            pl = pl_next;
            early_weighted = early_weighted.wrapping_sub(alpha[j].wrapping_mul(c_tau));
            tardy_weighted = tardy_weighted.wrapping_add(beta[j].wrapping_mul(c_tau));
            c_tau -= p[j];
            tau -= 1;
        }
        start_gap = c_tau;
    }
    start_gap
        .wrapping_mul(pe.wrapping_sub(pl))
        .wrapping_sub(early_weighted)
        .wrapping_add(tardy_weighted)
}

/// Optimize one job sequence of a CDD (or UCDDCP, ignoring compression)
/// instance: returns the optimal shift, due-date position and objective.
///
/// # Panics
/// Panics if `seq.len() != inst.n()` (debug builds assert the permutation
/// invariant too; [`JobSequence`] guarantees it in safe code).
pub fn optimize_cdd_sequence(inst: &Instance, seq: &JobSequence) -> CddSequenceSolution {
    assert_eq!(
        seq.len(),
        inst.n(),
        "sequence length {} does not match instance size {}",
        seq.len(),
        inst.n()
    );
    debug_assert!(seq.is_valid_permutation());
    let (p, _, a, b, _) = inst.to_arrays();
    let (shift, r) = cdd_optimal_shift_raw(&p, &a, &b, inst.due_date(), seq.as_slice());
    let objective = cdd_objective_with_shift(&p, &a, &b, inst.due_date(), seq.as_slice(), shift);
    CddSequenceSolution { objective, shift, due_position: r }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;

    /// The paper's worked example (Section IV-A): data of Table I, d = 16,
    /// identity sequence. The paper walks the algorithm to an optimum of 81
    /// with job 2 (1-based) finishing at the due date.
    #[test]
    fn paper_illustration_reaches_81() {
        let inst = Instance::paper_example_cdd();
        let seq = JobSequence::identity(5);
        let sol = optimize_cdd_sequence(&inst, &seq);
        assert_eq!(sol.objective, 81);
        // Final schedule: C = {11, 16, 18, 22, 26} → shift 5, job at position
        // 2 (1-based) completes at d = 16.
        assert_eq!(sol.shift, 5);
        assert_eq!(sol.due_position, 2);
    }

    /// Intermediate quantities of the paper's walk-through: packed completion
    /// times {6,11,13,17,21}, DT = {-10,-5,-3,1,5}, pe = 22, pl = 5.
    #[test]
    fn paper_illustration_packed_penalty() {
        let inst = Instance::paper_example_cdd();
        let (p, _, a, b, _) = inst.to_arrays();
        let seq = JobSequence::identity(5);
        // Packed (shift 0): E = {10,5,3}, T = {1,5}
        // → 7·10 + 9·5 + 6·3 + 3·1 + 2·5 = 70+45+18+3+10 = 146.
        let packed = cdd_objective_with_shift(&p, &a, &b, 16, seq.as_slice(), 0);
        assert_eq!(packed, 146);
        // After the first alignment (shift 3): job 3 at d.
        let aligned = cdd_objective_with_shift(&p, &a, &b, 16, seq.as_slice(), 3);
        // E = {7,2,0}, T = {4,8} → 49+18+0+12+16 = 95.
        assert_eq!(aligned, 95);
    }

    #[test]
    fn all_tardy_when_due_date_zero() {
        let inst = Instance::cdd_from_arrays(&[3, 2], &[5, 5], &[1, 1], 0).unwrap();
        let seq = JobSequence::identity(2);
        let sol = optimize_cdd_sequence(&inst, &seq);
        assert_eq!(sol.shift, 0);
        assert_eq!(sol.due_position, 0);
        // C = {3,5}: T = {3,5} → 3+5 = 8.
        assert_eq!(sol.objective, 8);
    }

    #[test]
    fn no_shift_when_tardiness_dominates() {
        // β large: packing at zero is optimal even though job 1 is early.
        let inst = Instance::cdd_from_arrays(&[2, 2], &[1, 1], &[100, 100], 3).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(2));
        assert_eq!(sol.shift, 0);
        // C = {2,4}: E1 = 1 → 1, T2 = 1 → 100. Total 101.
        assert_eq!(sol.objective, 101);
    }

    #[test]
    fn unrestricted_all_alpha_zero_stays_packed() {
        // Earliness free: packed schedule already costs 0.
        let inst = Instance::cdd_from_arrays(&[4, 4], &[0, 0], &[7, 7], 100).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(2));
        assert_eq!(sol.objective, 0);
        assert_eq!(sol.shift, 0);
        assert_eq!(sol.due_position, 2);
    }

    #[test]
    fn unrestricted_shifts_to_due_date() {
        // One job, huge due date: job should complete exactly at d.
        let inst = Instance::cdd_from_arrays(&[5], &[3], &[4], 50).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(1));
        assert_eq!(sol.objective, 0);
        assert_eq!(sol.shift, 45);
        assert_eq!(sol.due_position, 1);
    }

    #[test]
    fn single_job_restricted() {
        let inst = Instance::cdd_from_arrays(&[10], &[3], &[4], 4).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(1));
        // C = 10 > 4 always (cannot start before 0): T = 6 → 24.
        assert_eq!(sol.objective, 24);
        assert_eq!(sol.shift, 0);
        assert_eq!(sol.due_position, 0);
    }

    #[test]
    fn sequence_order_matters() {
        let inst = Instance::paper_example_cdd();
        let a = optimize_cdd_sequence(&inst, &JobSequence::identity(5)).objective;
        let b = optimize_cdd_sequence(
            &inst,
            &JobSequence::from_vec(vec![4, 3, 2, 1, 0]).unwrap(),
        )
        .objective;
        assert_ne!(a, b);
    }

    #[test]
    fn tie_between_shift_and_no_shift_is_consistent() {
        // pe == pl: both packed and shifted schedules are optimal; the
        // algorithm must return the packed one and still be optimal.
        let inst = Instance::cdd_from_arrays(&[2, 2], &[3, 0], &[0, 3], 2).unwrap();
        let sol = optimize_cdd_sequence(&inst, &JobSequence::identity(2));
        assert_eq!(sol.shift, 0);
        // C = {2,4}: job 1 on time (E = 0), job 2 tardy by 2 → β·T = 3·2 = 6.
        assert_eq!(sol.objective, 6);
    }

    /// The reference pair the one-pass objective must reproduce.
    fn reference_objective(p: &[Time], a: &[Time], b: &[Time], d: Time, seq: &[u32]) -> Cost {
        let (shift, _) = cdd_optimal_shift_raw(p, a, b, d, seq);
        cdd_objective_with_shift(p, a, b, d, seq, shift)
    }

    /// The one-pass `cdd_objective_raw` must equal the reference pair
    /// (`cdd_optimal_shift_raw`, then `cdd_objective_with_shift`) over the
    /// edge cases its derivation leans on:
    /// `d = 0` (all tardy), `d ≥ ΣP`, `α ≡ 0`, `β ≡ 0`, `pe = pl` ties,
    /// `n = 1`, and data at the kernels' validation cap (`VALUE_CAP = 2^20`
    /// in cdd-gpu).
    #[test]
    fn one_pass_objective_matches_reference_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const CAP: Time = 1 << 20;
        let mut rng = StdRng::seed_from_u64(0xCDD0);
        let (mut zero_d, mut unrestricted, mut ties, mut singles, mut capped) = (0, 0, 0, 0, 0);
        for case in 0..600 {
            let n = if case % 13 == 0 { 1 } else { rng.gen_range(2..=40) };
            let mode = case % 6;
            let rate = |rng: &mut StdRng| match mode {
                // {0, 1} rates make `pe = pl` ties common.
                3 => rng.gen_range(0..=1),
                4 => CAP,
                5 => rng.gen_range(0..=CAP),
                _ => rng.gen_range(0..=15),
            };
            let p: Vec<Time> = (0..n)
                .map(|_| match mode {
                    4 => CAP,
                    5 => rng.gen_range(1..=CAP),
                    _ => rng.gen_range(1..=30),
                })
                .collect();
            let a: Vec<Time> = (0..n).map(|_| if mode == 1 { 0 } else { rate(&mut rng) }).collect();
            let b: Vec<Time> = (0..n).map(|_| if mode == 2 { 0 } else { rate(&mut rng) }).collect();
            let sum_p: Time = p.iter().sum();
            let d = match (case / 6) % 4 {
                0 => 0,
                1 => sum_p + rng.gen_range(0..=40 as Time),
                2 => sum_p,
                _ => rng.gen_range(0..=sum_p),
            };
            let seq = JobSequence::random(n, &mut rng);
            let ids = seq.as_slice();
            let want = reference_objective(&p, &a, &b, d, ids);
            assert_eq!(cdd_objective_raw(&p, &a, &b, d, ids), want, "case {case}");

            // Tally the edge cases actually exercised.
            let (mut c, mut tau, mut pe, mut pl) = (0, 0, 0, 0);
            for (k, &j) in ids.iter().enumerate() {
                let j = j as usize;
                c += p[j];
                if c <= d {
                    tau = k + 1;
                    pe += a[j];
                } else {
                    pl += b[j];
                }
            }
            ties += usize::from(tau > 0 && pe == pl);
            zero_d += usize::from(d == 0);
            unrestricted += usize::from(d >= sum_p);
            singles += usize::from(n == 1);
            capped += usize::from(mode == 4);
        }
        for (what, hits) in [
            ("d = 0", zero_d),
            ("d >= sum P", unrestricted),
            ("pe = pl ties", ties),
            ("n = 1", singles),
            ("data at the cap", capped),
        ] {
            assert!(hits >= 10, "only {hits} cases cover {what}");
        }
    }

    /// A long first job puts every completion time near 2^42, so the
    /// weighted sums (and `(d − s)(pe − pl)`) wrap `i64` while the
    /// objective itself stays small: the wrapping identity must still give
    /// the exact value.
    #[test]
    fn one_pass_objective_is_exact_when_intermediates_wrap() {
        let mut p = vec![1 << 42];
        p.extend([3, 1, 4, 1, 5, 9, 2, 6]);
        let n = p.len();
        let a: Vec<Time> = (0..n as Time).map(|i| (1 << 20) - i).collect();
        let b: Vec<Time> = (0..n as Time).map(|i| (1 << 19) + 7 * i).collect();
        let sum_p: Time = p.iter().sum();
        let seq = JobSequence::identity(n);
        for d in [sum_p, sum_p - 10, sum_p + 1000, 1 << 43] {
            let want = reference_objective(&p, &a, &b, d, seq.as_slice());
            assert_eq!(cdd_objective_raw(&p, &a, &b, d, seq.as_slice()), want, "d = {d}");
        }
        // The intermediates really do leave the i64 range.
        let weighted: i128 = p.iter().scan(0i128, |c, &pj| {
            *c += i128::from(pj);
            Some(*c)
        })
        .zip(&a)
        .map(|(c, &aj)| c * i128::from(aj))
        .sum();
        assert!(weighted > i128::from(i64::MAX));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn one_pass_objective_rejects_out_of_range_ids() {
        let inst = Instance::paper_example_cdd();
        let (p, _, a, b, _) = inst.to_arrays();
        cdd_objective_raw(&p, &a, &b, 16, &[0u32, 1, 2, 3, 5]);
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn mismatched_sequence_length_panics() {
        let inst = Instance::paper_example_cdd();
        optimize_cdd_sequence(&inst, &JobSequence::identity(3));
    }
}
