//! Simulated Annealing — the paper's Algorithm 1.
//!
//! ```text
//! s ← s₀;  T ← T₀;  E ← Fitness(s)
//! while i ≤ #Iterations:
//!     s_new ← Neighbour(s)            (Fisher–Yates window, Pert = 4)
//!     E_new ← Fitness(s_new)          (O(n) sequence optimizer)
//!     if exp((E − E_new)/T) ≥ rand(0,1):  s ← s_new; E ← E_new
//!     T ← T·μ
//! return s
//! ```
//!
//! A single long chain of this SA is also this suite's stand-in for the
//! sequential CPU implementation of Lässig et al. \[7\] (used as the
//! best-known-producer and the CPU-time baseline of Tables III/V).

use crate::cooling::Cooling;
use crate::perturb::{shuffle_random_positions, PAPER_PERT};
use crate::temperature::{initial_temperature, PAPER_SAMPLES};
use crate::MetaResult;
use cdd_core::eval::SequenceEvaluator;
use cdd_core::{Cost, JobSequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of one SA chain.
#[derive(Debug, Clone, PartialEq)]
pub struct SaParams {
    /// Iteration budget (the paper evaluates 1000 and 5000).
    pub iterations: u64,
    /// Initial temperature; `None` applies the paper's rule (stddev of
    /// [`PAPER_SAMPLES`] random fitness values).
    pub t0: Option<f64>,
    /// Cooling schedule (paper: exponential, μ = 0.88).
    pub cooling: Cooling,
    /// Perturbation size `Pert` (paper: 4).
    pub pert: usize,
    /// Samples for the `T₀` estimate when `t0` is `None`.
    pub t0_samples: usize,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams {
            iterations: 1000,
            t0: None,
            cooling: Cooling::paper(),
            pert: PAPER_PERT,
            t0_samples: PAPER_SAMPLES,
        }
    }
}

impl SaParams {
    /// The paper's `SA₁₀₀₀` configuration.
    pub fn paper_1000() -> Self {
        SaParams { iterations: 1000, ..Default::default() }
    }

    /// The paper's `SA₅₀₀₀` configuration.
    pub fn paper_5000() -> Self {
        SaParams { iterations: 5000, ..Default::default() }
    }
}

/// A runnable SA optimizer bound to a fitness function.
pub struct SimulatedAnnealing<'a, E: SequenceEvaluator + ?Sized> {
    eval: &'a E,
    params: SaParams,
}

impl<'a, E: SequenceEvaluator + ?Sized> SimulatedAnnealing<'a, E> {
    /// Bind `params` to a fitness function.
    pub fn new(eval: &'a E, params: SaParams) -> Self {
        SimulatedAnnealing { eval, params }
    }

    /// The bound parameters.
    pub fn params(&self) -> &SaParams {
        &self.params
    }

    /// Run one chain from a random initial sequence derived from `seed`.
    pub fn run(&self, seed: u64) -> MetaResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = JobSequence::random(self.eval.n(), &mut rng);
        self.run_from(start, &mut rng)
    }

    /// Run one chain from an explicit initial sequence (the synchronous
    /// ensemble restarts chains from the broadcast best).
    pub fn run_from<R: Rng + ?Sized>(&self, start: JobSequence, rng: &mut R) -> MetaResult {
        let t0 = self
            .params
            .t0
            .unwrap_or_else(|| initial_temperature(self.eval, self.params.t0_samples, rng));
        let mut evaluations = 0u64;
        let mut current = start;
        let mut energy = self.eval.evaluate(current.as_slice());
        evaluations += 1;
        let mut best = current.clone();
        let mut best_energy = energy;

        let mut temp = t0;
        let mut candidate = current.clone();
        for k in 0..self.params.iterations {
            // Neighbour(s): copy-and-perturb, reusing the candidate buffer.
            candidate.clone_from(&current);
            shuffle_random_positions(&mut candidate, self.params.pert, rng);
            let e_new = self.eval.evaluate(candidate.as_slice());
            evaluations += 1;
            if metropolis_accept(energy, e_new, temp, rng.gen::<f64>()) {
                std::mem::swap(&mut current, &mut candidate);
                energy = e_new;
                if energy < best_energy {
                    best_energy = energy;
                    best.clone_from(&current);
                }
            }
            temp = self.params.cooling.step(temp, t0, k + 1);
        }
        MetaResult { best, objective: best_energy, evaluations }
    }
}

/// The metropolis criterion of Algorithm 1: accept iff
/// `exp((E − E_new)/T) ≥ u` for `u ~ U[0,1)`. Improvements (`E_new ≤ E`)
/// are always accepted.
#[inline]
pub fn metropolis_accept(energy: Cost, energy_new: Cost, temp: f64, u: f64) -> bool {
    if energy_new <= energy {
        return true;
    }
    if temp <= 0.0 {
        return false;
    }
    ((energy - energy_new) as f64 / temp).exp() >= u
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::eval::CddEvaluator;
    use cdd_core::exact::best_sequence_bruteforce;
    use cdd_core::Instance;

    #[test]
    fn metropolis_always_accepts_improvements() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(metropolis_accept(100, 90, 0.001, rng.gen()));
            assert!(metropolis_accept(100, 100, 0.001, rng.gen()));
        }
    }

    #[test]
    fn metropolis_rejects_huge_uphill_at_low_temperature() {
        // exp(-1000/0.1) ≈ 0: any u > 0 rejects.
        assert!(!metropolis_accept(0, 1000, 0.1, 0.5));
        // At enormous temperature the same move is accepted for small u.
        assert!(metropolis_accept(0, 1000, 1e9, 0.5));
    }

    #[test]
    fn metropolis_zero_temperature_is_greedy() {
        assert!(metropolis_accept(10, 9, 0.0, 0.99));
        assert!(!metropolis_accept(10, 11, 0.0, 0.0));
    }

    #[test]
    fn sa_finds_the_paper_example_optimum() {
        // n = 5: the global optimum is known by brute force; SA with the
        // paper's parameters must find it.
        let inst = Instance::paper_example_cdd();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let eval = CddEvaluator::new(&inst);
        let sa = SimulatedAnnealing::new(&eval, SaParams::paper_1000());
        let result = sa.run(42);
        assert_eq!(result.objective, optimum, "SA missed the global optimum");
        assert_eq!(result.objective, eval.evaluate(result.best.as_slice()));
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let inst = cdd_instances_like(12, 99);
        let eval = CddEvaluator::new(&inst);
        let short = SimulatedAnnealing::new(&eval, SaParams { iterations: 50, ..Default::default() });
        let long = SimulatedAnnealing::new(&eval, SaParams { iterations: 3000, ..Default::default() });
        // Compare best-of-3 to damp run-to-run noise.
        let s = (0..3).map(|i| short.run(i).objective).min().unwrap();
        let l = (0..3).map(|i| long.run(i).objective).min().unwrap();
        assert!(l <= s, "3000 iters ({l}) worse than 50 iters ({s})");
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let inst = cdd_instances_like(10, 7);
        let eval = CddEvaluator::new(&inst);
        let sa = SimulatedAnnealing::new(&eval, SaParams::paper_1000());
        let a = sa.run(123);
        let b = sa.run(123);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn evaluation_count_matches_budget() {
        let inst = cdd_instances_like(8, 3);
        let eval = CddEvaluator::new(&inst);
        let sa = SimulatedAnnealing::new(&eval, SaParams { iterations: 100, ..Default::default() });
        let r = sa.run(5);
        assert_eq!(r.evaluations, 101); // initial + one per iteration
    }

    /// Small deterministic random instance helper.
    fn cdd_instances_like(n: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let p: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=20)).collect();
        let a: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=10)).collect();
        let b: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=15)).collect();
        let d = (p.iter().sum::<i64>() as f64 * 0.6) as i64;
        Instance::cdd_from_arrays(&p, &a, &b, d).unwrap()
    }
}
