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
//! its compression penalty. [`optimize_ucddcp_sequence`] finds `r` with the
//! CDD optimizer and then applies both rules, O(n) each;
//! [`ucddcp_objective_raw`], the fitness function, does all of it in one
//! forward pass.

use crate::cdd_optimal::{cdd_objective_with_shift, cdd_optimal_shift_raw};
use crate::{Cost, Instance, JobSequence, ProblemKind, Time};
use std::hint::select_unpredictable;

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
/// fitness function. One forward pass, zero allocation.
///
/// `p`, `m`, `alpha`, `beta`, `gamma` are indexed by job id; `seq[k]` is the
/// job at position `k` and must be a **permutation** of `0..seq.len()`
/// (the caller's contract: it makes the order-free `Σβ` below exact). Every
/// gather is bounds-checked, so a job id of `n` or more panics; the arrays
/// are cut to `n` first, so one check per job covers all five gathers.
/// Requires an unrestricted due date (`d ≥ Σ Pᵢ`), checked only by
/// `debug_assert`; the objective then does not depend on `d`.
///
/// With `d ≥ Σ Pᵢ` the packed schedule completes every position by `d`,
/// so Theorem 1's backtrack starts from all-early and makes position `k`
/// tardy while `Σ_{i≥k} βᵢ < Σ_{i<k} αᵢ`. That difference only grows with
/// `k` (the rates are non-negative), so the due-date position `r` is the
/// number of positions `k` with `Σ_{i<k}(αᵢ + βᵢ) ≤ Σβ`, a prefix of the
/// sequence, and one forward pass split at `r` finds it while it scores.
/// Position `r − 1` completes at `d`, so with `Cₖ` the packed completion
/// time, `A = Σ_{k<r} αₖ` and `B = Σ_{k≥r} βₖ`, the CDD part of the
/// penalty is
///
/// ```text
/// Σ_{k<r} αₖ(C_{r−1} − Cₖ) + Σ_{k≥r} βₖ(Cₖ − C_{r−1})
///   = C_{r−1}(A − B) − Σ_{k<r} αₖCₖ + Σ_{k≥r} βₖCₖ
/// ```
///
/// and fully compressing the job at position `k` (Property 2) saves
/// `x⁺(G − γ)⁺`, with `x = P − M` and `G` the α-sum before `k` (early
/// side) or the β-sum from `k` on (tardy side). As in
/// [`cdd_objective_raw`](crate::cdd_optimal::cdd_objective_raw), the sums
/// accumulate in wrapping `i64`: the identity holds modulo 2⁶⁴, so the
/// result is exact whenever the objective itself fits.
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
    let (p, m, alpha, beta, gamma) = (&p[..n], &m[..n], &alpha[..n], &beta[..n], &gamma[..n]);
    debug_assert!(
        p.iter().sum::<Time>() <= d,
        "ucddcp_objective_raw requires an unrestricted due date"
    );
    // A permutation visits each of the `n` job ids once.
    let sum_beta: Time = beta.iter().sum();

    // Early side: positions `k < r`, while the slack
    // `Σβ − Σ_{i<k}(αᵢ + βᵢ)` is not negative.
    let mut k = 0;
    let mut c: Time = 0;
    let mut prefix_alpha: Time = 0;
    let mut slack = sum_beta;
    let mut early_weighted: Cost = 0;
    let mut saved: Cost = 0;
    while k < n && slack >= 0 {
        let j = seq[k] as usize;
        let (pj, aj) = (p[j], alpha[j]);
        c += pj;
        early_weighted = early_weighted.wrapping_add(aj.wrapping_mul(c));
        saved = saved.wrapping_add(compression_saving(pj - m[j], prefix_alpha, gamma[j]));
        prefix_alpha += aj;
        slack -= aj + beta[j];
        k += 1;
    }
    let (due_completion, early_alpha) = (c, prefix_alpha);

    // Tardy side: positions `k ≥ r`, with the β-sum from `k` on.
    let tardy_beta = slack + prefix_alpha;
    let mut suffix_beta = tardy_beta;
    let mut tardy_weighted: Cost = 0;
    for &j in &seq[k..] {
        let j = j as usize;
        let (pj, bj) = (p[j], beta[j]);
        c += pj;
        tardy_weighted = tardy_weighted.wrapping_add(bj.wrapping_mul(c));
        saved = saved.wrapping_add(compression_saving(pj - m[j], suffix_beta, gamma[j]));
        suffix_beta -= bj;
    }

    due_completion
        .wrapping_mul(early_alpha.wrapping_sub(tardy_beta))
        .wrapping_sub(early_weighted)
        .wrapping_add(tardy_weighted)
        .wrapping_sub(saved)
}

/// What fully compressing a job with headroom `x = P − M` saves when the
/// jobs it moves carry the rate sum `rate`: `x⁺(rate − γ)⁺`. Both factors
/// are selects, not branches: which jobs pay off follows no pattern the
/// branch predictor could learn.
#[inline(always)]
fn compression_saving(x: Time, rate: Time, gamma: Time) -> Cost {
    let x = select_unpredictable(x > 0, x, 0);
    let excess = select_unpredictable(rate > gamma, rate.wrapping_sub(gamma), 0);
    x.wrapping_mul(excess)
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

    /// The one-pass `ucddcp_objective_raw` must equal the two-pass
    /// optimizer (Theorem 1's backtrack, then the compression rules) on
    /// random instances, over the edge cases its derivation leans on:
    /// `α ≡ 0` (every position early), `β ≡ 0`, `γ ≡ 0`, `M = P` (nothing
    /// to compress), ties `Σ_{i<k}(αᵢ + βᵢ) = Σβ` at the split, `n = 1`,
    /// `d = Σ Pᵢ` exactly, and data at the kernels' validation cap
    /// (`VALUE_CAP = 2^20` in cdd-gpu).
    #[test]
    fn raw_objective_matches_two_pass_optimizer_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const CAP: Time = 1 << 20;
        let mut rng = StdRng::seed_from_u64(0xCDD1);
        let (mut zero_alpha, mut zero_beta, mut zero_gamma, mut rigid) = (0, 0, 0, 0);
        let (mut ties, mut singles, mut capped, mut tight) = (0, 0, 0, 0);
        for case in 0..800 {
            let n = if case % 13 == 0 { 1 } else { rng.gen_range(2..=40) };
            let mode = case % 8;
            let rate = |rng: &mut StdRng| match mode {
                // {0, 1} rates make ties at the split common.
                4 => rng.gen_range(0..=1),
                5 => CAP,
                6 => rng.gen_range(0..=CAP),
                _ => rng.gen_range(0..=15),
            };
            let p: Vec<Time> = (0..n)
                .map(|_| match mode {
                    5 => CAP,
                    6 => rng.gen_range(1..=CAP),
                    _ => rng.gen_range(1..=30),
                })
                .collect();
            let m: Vec<Time> =
                p.iter().map(|&pi| if mode == 3 { pi } else { rng.gen_range(1..=pi) }).collect();
            let a: Vec<Time> = (0..n).map(|_| if mode == 0 { 0 } else { rate(&mut rng) }).collect();
            let b: Vec<Time> = (0..n).map(|_| if mode == 1 { 0 } else { rate(&mut rng) }).collect();
            let g: Vec<Time> = (0..n).map(|_| if mode == 2 { 0 } else { rate(&mut rng) }).collect();
            let sum_p: Time = p.iter().sum();
            let d = if case % 5 == 0 { sum_p } else { sum_p + rng.gen_range(0..=40 as Time) };
            let inst = Instance::ucddcp_from_arrays(&p, &m, &a, &b, &g, d).unwrap();
            let seq = JobSequence::random(n, &mut rng);
            let ids = seq.as_slice();
            let sol = optimize_ucddcp_sequence(&inst, &seq);
            let raw = ucddcp_objective_raw(&p, &m, &a, &b, &g, d, ids);
            assert_eq!(raw, sol.objective, "case {case}: n={n} d={d} seq={ids:?}");

            // Tally the edge cases actually exercised.
            let sum_b: Time = b.iter().sum();
            let mut prefix = 0;
            for &j in &ids[..n - 1] {
                prefix += a[j as usize] + b[j as usize];
                ties += usize::from(prefix == sum_b);
            }
            zero_alpha += usize::from(a.iter().all(|&x| x == 0));
            zero_beta += usize::from(b.iter().all(|&x| x == 0));
            zero_gamma += usize::from(g.iter().all(|&x| x == 0));
            rigid += usize::from(m == p);
            singles += usize::from(n == 1);
            capped += usize::from(mode == 5);
            tight += usize::from(d == sum_p);
        }
        for (what, hits) in [
            ("alpha = 0", zero_alpha),
            ("beta = 0", zero_beta),
            ("gamma = 0", zero_gamma),
            ("M = P", rigid),
            ("ties at the split", ties),
            ("n = 1", singles),
            ("data at the cap", capped),
            ("d = sum P", tight),
        ] {
            assert!(hits >= 10, "only {hits} cases cover {what}");
        }
    }

    /// A long first job puts every completion time near 2^42, so
    /// `C_{r−1}(A − B)` and the weighted sums wrap `i64` while the
    /// objective itself stays small: the wrapping identity must still give
    /// the two-pass optimizer's exact value.
    #[test]
    fn raw_objective_is_exact_when_intermediates_wrap() {
        let mut p = vec![1 << 42];
        p.extend([3, 1, 4, 1, 5, 9, 2, 6]);
        let n = p.len();
        let m: Vec<Time> = p.iter().map(|&pi| pi - pi / 3).collect();
        let a: Vec<Time> = (0..n as Time).map(|i| (1 << 20) - i).collect();
        let b: Vec<Time> = (0..n as Time).map(|i| (1 << 19) + 7 * i).collect();
        let g: Vec<Time> = (0..n as Time).map(|i| (1 << 20) + 3 * i).collect();
        let sum_p: Time = p.iter().sum();
        let seq = JobSequence::identity(n);
        for d in [sum_p, sum_p + 1000, 1 << 43] {
            let inst = Instance::ucddcp_from_arrays(&p, &m, &a, &b, &g, d).unwrap();
            let want = optimize_ucddcp_sequence(&inst, &seq).objective;
            let raw = ucddcp_objective_raw(&p, &m, &a, &b, &g, d, seq.as_slice());
            assert_eq!(raw, want, "d = {d}");
        }
        // The intermediates really do leave the i64 range.
        let weighted: i128 = p
            .iter()
            .scan(0i128, |c, &pj| {
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
    fn raw_objective_rejects_out_of_range_ids() {
        let inst = Instance::paper_example_ucddcp();
        let (p, m, a, b, g) = inst.to_arrays();
        ucddcp_objective_raw(&p, &m, &a, &b, &g, 22, &[0u32, 1, 2, 3, 5]);
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
