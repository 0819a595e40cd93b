//! The O(n) fixed-sequence optimizer for the **UCDDCP** problem
//! (Awasthi, Lässig, Kramer 2015 — reference \[8\] of the paper).
//!
//! Two structural properties (proved in \[8\]) reduce the fixed-sequence
//! UCDDCP to the fixed-sequence CDD plus an independent per-job compression
//! decision:
//!
//! * **Property 1** — the due-date position of the optimal *uncompressed*
//!   (CDD) schedule is unchanged by optimal compression.
//! * **Property 2** — if compressing a job improves the objective at all,
//!   compressing it *fully* (to `Mᵢ`) is optimal.
//!
//! With the due-date position `r` fixed (position `r` completes exactly at
//! `d`; positions after it are tardy, positions before it early), the effect
//! of fully compressing one job is exactly linear and independent of all
//! other compression decisions:
//!
//! * a **tardy** job at position `k > r`: compressing it by `X` pulls every
//!   job from `k` to `n` earlier by `X` (none can cross `d`, since they all
//!   start at or after `d`), gaining `X · (Σ_{i=k..n} βᵢ − γ)`;
//! * an **early/on-time** job at position `k ≤ r`: the chain from `k` to `r`
//!   is pinned by `C_r = d`, so compression moves the *predecessors*
//!   `1..k-1` later by `X` (they cannot cross `d` either), gaining
//!   `X · (Σ_{i<k} αᵢ − γ)`.
//!
//! A job is therefore compressed iff its bracketed rate sum strictly exceeds
//! its compression penalty. Both passes are O(n).

use crate::cdd_optimal::{cdd_objective_with_shift, cdd_optimal_shift_raw};
use crate::{Cost, Instance, JobSequence, ProblemKind, Time};

/// Result of optimizing one job sequence for the UCDDCP problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UcddcpSequenceSolution {
    /// Minimal total penalty `Σ (αᵢEᵢ + βᵢTᵢ + γᵢXᵢ)`.
    pub objective: Cost,
    /// Objective of the optimal *uncompressed* (pure CDD) schedule of the
    /// same sequence; `objective ≤ cdd_objective`.
    pub cdd_objective: Cost,
    /// Start time of the first job in the optimal **compressed** schedule.
    ///
    /// Compressing an early-side job keeps the due-date position pinned
    /// (`C_r = d`) and moves the job's *predecessors* later, so the first
    /// start grows by the total early-side compression relative to the
    /// uncompressed optimum.
    pub shift: Time,
    /// Due-date position `r` (see
    /// [`crate::CddSequenceSolution::due_position`]); unchanged by
    /// compression (Property 1).
    pub due_position: usize,
    /// Compression amount `Xᵢ` per **job id** (not per position). Each entry
    /// is either `0` or the job's full `Pᵢ − Mᵢ` (Property 2).
    pub compressions: Vec<Time>,
}

/// Optimal UCDDCP objective for one sequence, on raw arrays — the GPU/CPU
/// fitness function. O(n), zero allocation.
///
/// `p`, `m`, `alpha`, `beta`, `gamma` are indexed by job id; `seq[k]` is the
/// job at position `k` and must be a **permutation** of `0..seq.len()`
/// (job ids are validated; uniqueness is the caller's contract — it is
/// what makes the specialized rate sums below exact). Requires an
/// unrestricted due date (`d ≥ Σ Pᵢ`), checked only by `debug_assert`.
pub fn ucddcp_objective_raw(
    p: &[Time],
    m: &[Time],
    alpha: &[Time],
    beta: &[Time],
    gamma: &[Time],
    d: Time,
    seq: &[u32],
) -> Cost {
    let n = seq.len();
    // One vectorizable pass validates every job id against the shortest
    // array; afterwards each gather below is in bounds by construction, so
    // the per-access bounds checks (and their branches) drop out of the
    // O(n) hot loops.
    let limit = p.len().min(m.len()).min(alpha.len()).min(beta.len()).min(gamma.len());
    assert!(
        n <= limit && seq.iter().all(|&j| (j as usize) < n),
        "ucddcp_objective_raw: sequence contains a job id outside the instance"
    );

    // With `d ≥ Σ Pᵢ`, the packed schedule completes every position at or
    // before `d`: pass 1 of `cdd_optimal_shift_raw` is fully determined —
    // `τ = n`, `c_τ = Σ Pᵢ`, `pe = Σ αᵢ`, `pl = 0` — and both sums are
    // order-independent (a permutation visits each of the first `n` job
    // ids exactly once), so they come from direct gather-free slice sums.
    let sum_p: Time = p[..n].iter().sum();
    debug_assert!(sum_p <= d, "ucddcp_objective_raw requires an unrestricted due date");
    let pe0: Time = alpha[..n].iter().sum();

    let (shift, r, pl) = if n == 0 || pe0 == 0 {
        // All-tardy is impossible here; pl (= 0) ≥ pe means packed is optimal.
        (0, n, 0)
    } else {
        // Align position τ with the due date, then keep shifting while making
        // position τ tardy still pays off (Theorem 1, Case 2(ii)).
        let mut shift = d - sum_p;
        let mut tau = n;
        let mut pe = pe0;
        let mut pl: Time = 0;
        #[allow(unsafe_code)]
        while tau >= 1 {
            // SAFETY: `tau - 1 < n = seq.len()` and every id in `seq` was
            // validated above against the shortest array.
            let j = unsafe { *seq.get_unchecked(tau - 1) } as usize;
            let pe_next = pe - unsafe { *alpha.get_unchecked(j) };
            let pl_next = pl + unsafe { *beta.get_unchecked(j) };
            if pl_next < pe_next {
                shift += unsafe { *p.get_unchecked(j) };
                pe = pe_next;
                pl = pl_next;
                tau -= 1;
            } else {
                break;
            }
        }
        (shift, tau, pl)
    };

    // Single fused pass: CDD penalty plus both compression rules. Positions
    // before `r` complete at or before `d` (earliness side, prefix-α rule);
    // positions from `r` on complete at or after `d` (tardiness side,
    // suffix-β rule). `pl` is exactly the β-sum over the tardy positions,
    // so the backward suffix accumulation of the two-pass form becomes a
    // forward decrement — same value at every position, identical integer
    // results.
    let mut c = shift;
    let mut obj: Cost = 0;
    let mut prefix_alpha: Time = 0;
    let mut suffix_beta = pl;
    for (k, &j) in seq.iter().enumerate() {
        let j = j as usize;
        // SAFETY: every id in `seq` was validated above against the
        // shortest of the five arrays.
        #[allow(unsafe_code)]
        unsafe {
            let pj = *p.get_unchecked(j);
            let x = pj - *m.get_unchecked(j);
            let gj = *gamma.get_unchecked(j);
            c += pj;
            if k < r {
                let aj = *alpha.get_unchecked(j);
                obj += aj * (d - c);
                if x > 0 && prefix_alpha > gj {
                    obj -= x * (prefix_alpha - gj);
                }
                prefix_alpha += aj;
            } else {
                let bj = *beta.get_unchecked(j);
                obj += bj * (c - d);
                if x > 0 && suffix_beta > gj {
                    obj -= x * (suffix_beta - gj);
                }
                suffix_beta -= bj;
            }
        }
    }
    obj
}

/// Optimize one job sequence of a UCDDCP instance, returning the full
/// solution (objective, shift, due-date position and per-job compressions).
///
/// # Panics
/// Panics if `seq.len() != inst.n()` or if the instance is not a UCDDCP
/// instance (use [`crate::optimize_cdd_sequence`] for plain CDD).
pub fn optimize_ucddcp_sequence(inst: &Instance, seq: &JobSequence) -> UcddcpSequenceSolution {
    assert_eq!(
        inst.kind(),
        ProblemKind::Ucddcp,
        "optimize_ucddcp_sequence requires a UCDDCP instance"
    );
    assert_eq!(
        seq.len(),
        inst.n(),
        "sequence length {} does not match instance size {}",
        seq.len(),
        inst.n()
    );
    debug_assert!(seq.is_valid_permutation());

    let (p, m, a, b, g) = inst.to_arrays();
    let d = inst.due_date();
    let s = seq.as_slice();
    let (shift, r) = cdd_optimal_shift_raw(&p, &a, &b, d, s);
    let cdd_objective = cdd_objective_with_shift(&p, &a, &b, d, s, shift);

    let mut objective = cdd_objective;
    let mut compressions = vec![0 as Time; inst.n()];

    let mut suffix_beta: Time = 0;
    for k in (r..s.len()).rev() {
        let j = s[k] as usize;
        suffix_beta += b[j];
        let x = p[j] - m[j];
        if x > 0 && suffix_beta > g[j] {
            objective -= x * (suffix_beta - g[j]);
            compressions[j] = x;
        }
    }
    let mut prefix_alpha: Time = 0;
    let mut early_compression: Time = 0;
    for &job in &s[..r] {
        let j = job as usize;
        let x = p[j] - m[j];
        if x > 0 && prefix_alpha > g[j] {
            objective -= x * (prefix_alpha - g[j]);
            compressions[j] = x;
            early_compression += x;
        }
        prefix_alpha += a[j];
    }

    // Early-side compression moves predecessors right while C_r stays at d:
    // the first job's start grows by the total early-side compression.
    UcddcpSequenceSolution {
        objective,
        cdd_objective,
        shift: shift + early_compression,
        due_position: r,
        compressions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Instance;

    /// The paper's worked example (Section IV-B): Table I data with d = 22.
    /// The walk-through compresses jobs 5 and 4 (1-based) for a final
    /// objective of 77, starting from the CDD optimum 81.
    #[test]
    fn paper_illustration_reaches_77() {
        let inst = Instance::paper_example_ucddcp();
        let seq = JobSequence::identity(5);
        let sol = optimize_ucddcp_sequence(&inst, &seq);
        assert_eq!(sol.cdd_objective, 81);
        assert_eq!(sol.objective, 77);
        // Due date sits at the completion of job 2 (1-based position 2).
        assert_eq!(sol.due_position, 2);
        // Jobs 4 and 5 (ids 3, 4) are fully compressed by 1 each; all other
        // jobs have zero compression headroom or no incentive.
        assert_eq!(sol.compressions, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn raw_objective_matches_full_solution() {
        let inst = Instance::paper_example_ucddcp();
        let (p, m, a, b, g) = inst.to_arrays();
        let seq = JobSequence::identity(5);
        let raw = ucddcp_objective_raw(&p, &m, &a, &b, &g, 22, seq.as_slice());
        assert_eq!(raw, 77);
    }

    #[test]
    fn no_compression_when_gamma_dominates() {
        // γ so large that compression never pays: UCDDCP optimum == CDD one.
        let inst = Instance::ucddcp_from_arrays(
            &[4, 4],
            &[1, 1],
            &[2, 2],
            &[3, 3],
            &[1000, 1000],
            20,
        )
        .unwrap();
        let sol = optimize_ucddcp_sequence(&inst, &JobSequence::identity(2));
        assert_eq!(sol.objective, sol.cdd_objective);
        assert_eq!(sol.compressions, vec![0, 0]);
    }

    #[test]
    fn free_compression_squeezes_tardy_jobs() {
        // γ = 0, all jobs end up placed around d; compressing tardy jobs is
        // free improvement.
        let inst =
            Instance::ucddcp_from_arrays(&[6, 6], &[2, 2], &[5, 5], &[5, 5], &[0, 0], 12).unwrap();
        let sol = optimize_ucddcp_sequence(&inst, &JobSequence::identity(2));
        // CDD optimum: shift so job 2 completes at d (C = {6,12}): cost 0
        // earliness for job 1? E1 = 6 → 5·6 = 30; or job 1 at d (C = {12,18}
        // shift 6): T2 = 6 → 30. Either way CDD = 30.
        assert_eq!(sol.cdd_objective, 30);
        // Due position r = 2 (C = {6,12}, job 2 at d). Compressing job 2
        // (early-side rule) pulls job 1 later by 4 units for free:
        // gain 4 · (α₁ − γ₂) = 4 · 5 = 20 → objective 10.
        assert_eq!(sol.objective, 10);
    }

    #[test]
    fn equality_of_gain_and_gamma_does_not_compress() {
        // suffix β == γ exactly → zero gain → keep X = 0.
        let inst =
            Instance::ucddcp_from_arrays(&[5, 5], &[1, 1], &[9, 9], &[4, 4], &[9, 4], 10).unwrap();
        let sol = optimize_ucddcp_sequence(&inst, &JobSequence::identity(2));
        // CDD: packed C = {5,10}: E1 = 5 → 45; shifting right: crossing job 2
        // ... due position: C2 = 10 = d → r = 2, pe = 18, pl = 0 already
        // aligned (shift 0). Crossing job 2: pe' = 9, pl' = 4 < 9 → shift by
        // P2 = 5: C = {10,15}: T2 = 5·4 = 20 → worse? No: E1 = 0, job1 at d.
        // Objective = 20 vs packed 45. Then crossing job 1: pe'' = 0,
        // pl'' = 8 ≥ 0 → stop. CDD = 20, r = 1.
        assert_eq!(sol.cdd_objective, 20);
        assert_eq!(sol.due_position, 1);
        // Tardy job 2 has suffix β = 4 == γ2 = 4 → no compression.
        assert_eq!(sol.compressions, vec![0, 0]);
        assert_eq!(sol.objective, 20);
    }

    #[test]
    fn early_side_compression_helps_predecessors() {
        // Three jobs; the middle one pinned at d; compressing it pulls the
        // first job's earliness down.
        let inst = Instance::ucddcp_from_arrays(
            &[10, 10, 10],
            &[10, 2, 10],
            &[8, 1, 1],
            &[1, 1, 50],
            &[100, 2, 100],
            40,
        )
        .unwrap();
        let sol = optimize_ucddcp_sequence(&inst, &JobSequence::identity(3));
        // Prefix α before job 2 (id 1) is α₀ = 8 > γ₁ = 2, headroom 8 units.
        assert_eq!(sol.compressions[1], 8);
        assert_eq!(sol.objective, sol.cdd_objective - 8 * (8 - 2));
    }

    /// The fused single-pass form of `ucddcp_objective_raw` must agree with
    /// the two-pass optimizer on arbitrary instances, including the edge
    /// cases its specialization leans on (`pe = 0`, `d = Σ Pᵢ` exactly).
    #[test]
    fn raw_objective_matches_two_pass_optimizer_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xCDD1);
        for case in 0..500 {
            let n = rng.gen_range(1..=24);
            let p: Vec<Time> = (0..n).map(|_| rng.gen_range(1..=30)).collect();
            let m: Vec<Time> = p.iter().map(|&pi| rng.gen_range(1..=pi)).collect();
            let zero_alpha = case % 7 == 0;
            let a: Vec<Time> =
                (0..n).map(|_| if zero_alpha { 0 } else { rng.gen_range(0..=15) }).collect();
            let b: Vec<Time> = (0..n).map(|_| rng.gen_range(0..=15)).collect();
            let g: Vec<Time> = (0..n).map(|_| rng.gen_range(0..=12)).collect();
            let sum_p: Time = p.iter().sum();
            let d = if case % 5 == 0 { sum_p } else { sum_p + rng.gen_range(0..=40 as Time) };
            let inst = Instance::ucddcp_from_arrays(&p, &m, &a, &b, &g, d).unwrap();
            let seq = JobSequence::random(n, &mut rng);
            let sol = optimize_ucddcp_sequence(&inst, &seq);
            let raw = ucddcp_objective_raw(&p, &m, &a, &b, &g, d, seq.as_slice());
            assert_eq!(raw, sol.objective, "case {case}: n={n} d={d} seq={:?}", seq.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "requires a UCDDCP instance")]
    fn cdd_instance_rejected() {
        let inst = Instance::paper_example_cdd();
        optimize_ucddcp_sequence(&inst, &JobSequence::identity(5));
    }

    #[test]
    fn compression_never_hurts() {
        let inst = Instance::paper_example_ucddcp();
        for perm in [
            vec![0u32, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![2, 0, 4, 1, 3],
            vec![1, 3, 0, 4, 2],
        ] {
            let seq = JobSequence::from_vec(perm).unwrap();
            let sol = optimize_ucddcp_sequence(&inst, &seq);
            assert!(sol.objective <= sol.cdd_objective);
        }
    }
}
