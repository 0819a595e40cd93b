//! Property-based tests of the metaheuristic building blocks.

use cdd_core::eval::{CddEvaluator, SequenceEvaluator};
use cdd_core::{Instance, JobSequence, Time};
use cdd_meta::dpso::{one_point_crossover, two_point_crossover};
use cdd_meta::perturb::shuffle_random_positions;
use cdd_meta::sa::metropolis_accept;
use cdd_meta::{SaParams, SimulatedAnnealing};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn permutation(n: usize, seed: u64) -> JobSequence {
    JobSequence::random(n, &mut StdRng::seed_from_u64(seed))
}

/// Oracle: the allocating one-point crossover the branch-free version
/// replaced (fresh seen-marks per call, one branch per job of `b`).
fn one_point_oracle(a: &[u32], b: &[u32], cut: usize) -> Vec<u32> {
    let mut present = vec![false; a.len()];
    let mut out = a[..cut].to_vec();
    for &j in &a[..cut] {
        present[j as usize] = true;
    }
    out.extend(b.iter().filter(|&&j| !present[j as usize]));
    out
}

/// Oracle: the allocating two-point crossover the branch-free version
/// replaced.
fn two_point_oracle(a: &[u32], b: &[u32], lo: usize, hi: usize) -> Vec<u32> {
    let n = a.len();
    let mut present = vec![false; n];
    for &j in &a[lo..hi] {
        present[j as usize] = true;
    }
    let mut out = vec![u32::MAX; n];
    out[lo..hi].copy_from_slice(&a[lo..hi]);
    let mut fill = b.iter().filter(|&&j| !present[j as usize]);
    for k in (0..lo).chain(hi..n) {
        out[k] = *fill.next().expect("counts match by construction");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Both crossover operators are closed over permutations for arbitrary
    /// parents and cut points.
    #[test]
    fn crossovers_are_closed(
        n in 2usize..80,
        sa in any::<u64>(),
        sb in any::<u64>(),
        cut in any::<prop::sample::Index>(),
        lo in any::<prop::sample::Index>(),
        hi in any::<prop::sample::Index>(),
    ) {
        let a = permutation(n, sa);
        let b = permutation(n, sb);
        let mut out = Vec::new();
        let mut marks = vec![false; n];
        one_point_crossover(a.as_slice(), b.as_slice(), cut.index(n + 1), &mut marks, &mut out);
        prop_assert!(JobSequence::from_vec(out.clone()).unwrap().is_valid_permutation());
        let (mut l, mut h) = (lo.index(n + 1), hi.index(n + 1));
        if l > h { std::mem::swap(&mut l, &mut h); }
        two_point_crossover(a.as_slice(), b.as_slice(), l, h, &mut marks, &mut out);
        prop_assert!(JobSequence::from_vec(out.clone()).unwrap().is_valid_permutation());
    }

    /// The branch-free crossovers equal the allocating oracles, reuse one
    /// `out` and one `marks` buffer across calls, and leave every mark
    /// `false` after each call.
    #[test]
    fn crossovers_match_allocating_oracles(
        n in 1usize..80,
        sa in any::<u64>(),
        sb in any::<u64>(),
        calls in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            1..6,
        ),
    ) {
        let a = permutation(n, sa);
        let b = permutation(n, sb);
        let (a, b) = (a.as_slice(), b.as_slice());
        let mut out = Vec::new();
        let mut marks = vec![false; n];
        for (x, y) in calls {
            let cut = x.index(n + 1);
            one_point_crossover(a, b, cut, &mut marks, &mut out);
            prop_assert_eq!(&out, &one_point_oracle(a, b, cut));
            prop_assert!(marks.iter().all(|&m| !m));

            let (lo, hi) = (cut.min(y.index(n + 1)), cut.max(y.index(n + 1)));
            two_point_crossover(a, b, lo, hi, &mut marks, &mut out);
            prop_assert_eq!(&out, &two_point_oracle(a, b, lo, hi));
            prop_assert!(marks.iter().all(|&m| !m));
        }
    }

    /// One-point crossover with `cut = n` reproduces parent A; with
    /// `cut = 0` it reproduces parent B.
    #[test]
    fn crossover_degenerate_cuts(n in 2usize..40, sa in any::<u64>(), sb in any::<u64>()) {
        let a = permutation(n, sa);
        let b = permutation(n, sb);
        let mut out = Vec::new();
        let mut marks = vec![false; n];
        one_point_crossover(a.as_slice(), b.as_slice(), n, &mut marks, &mut out);
        prop_assert_eq!(&out[..], a.as_slice());
        one_point_crossover(a.as_slice(), b.as_slice(), 0, &mut marks, &mut out);
        prop_assert_eq!(&out[..], b.as_slice());
    }

    /// The metropolis rule is monotone: a larger uphill step is never more
    /// acceptable (at equal temperature and draw), and any move acceptable
    /// at temperature T stays acceptable at T' > T.
    #[test]
    fn metropolis_monotonicity(
        e in 0i64..1000,
        d1 in 0i64..500,
        d2 in 0i64..500,
        t in 0.1..1000.0f64,
        dt in 0.1..1000.0f64,
        u in 0.0..1.0f64,
    ) {
        let (small, large) = (e + d1.min(d2), e + d1.max(d2));
        if metropolis_accept(e, large, t, u) {
            prop_assert!(metropolis_accept(e, small, t, u));
        }
        if metropolis_accept(e, large, t, u) {
            prop_assert!(metropolis_accept(e, large, t + dt, u));
        }
        // Downhill is always accepted.
        prop_assert!(metropolis_accept(e, e - d1, t, u));
    }

    /// SA's reported best is never worse than the fitness of its own
    /// starting point (elitist best tracking).
    #[test]
    fn sa_never_loses_to_its_start(seed in any::<u64>(), n in 2usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let p: Vec<Time> = (0..n).map(|_| rng.gen_range(1..=20)).collect();
        let a: Vec<Time> = (0..n).map(|_| rng.gen_range(1..=10)).collect();
        let b: Vec<Time> = (0..n).map(|_| rng.gen_range(1..=15)).collect();
        let d = (p.iter().sum::<Time>() as f64 * 0.5) as Time;
        let inst = Instance::cdd_from_arrays(&p, &a, &b, d).expect("valid");
        let eval = CddEvaluator::new(&inst);

        // Reconstruct the starting sequence SA will draw (t0 fixed so the
        // RNG stream is not consumed by the estimate).
        let mut sa_rng = StdRng::seed_from_u64(seed);
        let start = JobSequence::random(n, &mut sa_rng);
        let start_cost = eval.evaluate(start.as_slice());

        let sa = SimulatedAnnealing::new(
            &eval,
            SaParams { iterations: 40, t0: Some(25.0), ..Default::default() },
        );
        let r = sa.run(seed);
        prop_assert!(r.objective <= start_cost);
        prop_assert_eq!(r.objective, eval.evaluate(r.best.as_slice()));
    }

    /// The window perturbation never teleports more jobs than `pert`.
    #[test]
    fn perturbation_displacement_bound(
        n in 2usize..100,
        pert in 2usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let original = permutation(n, seed ^ 1);
        let mut s = original.clone();
        shuffle_random_positions(&mut s, pert, &mut rng);
        prop_assert!(s.is_valid_permutation());
        let moved = s
            .as_slice()
            .iter()
            .zip(original.as_slice())
            .filter(|(x, y)| x != y)
            .count();
        prop_assert!(moved <= pert.min(n));
    }
}
