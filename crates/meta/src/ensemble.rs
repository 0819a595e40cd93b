//! Multi-chain parallel SA schemes (Ferreiro et al. \[12\]).
//!
//! * [`AsyncEnsemble`] — the **asynchronous** scheme (paper Fig. 7): ω
//!   independent chains run to completion, then one reduction selects the
//!   best result. This is the scheme the paper adopts on the GPU ("the
//!   reason for choosing the asynchronous version … is the premature
//!   convergence of the \[synchronous\] approach").
//! * [`SyncEnsemble`] — the **synchronous** scheme (paper Fig. 8): at each
//!   temperature level every chain simulates a constant-temperature Markov
//!   chain of length `M`; the best final state is broadcast as everyone's
//!   start for the next level.
//!
//! Chains execute through rayon so multi-core hosts parallelize them; on the
//! single-core evaluation host they degrade gracefully to sequential
//! execution (wall-clock GPU comparisons use the `cuda-sim` model instead).

use crate::cooling::Cooling;
use crate::perturb::shuffle_random_positions;
use crate::sa::{metropolis_accept, SaParams, SimulatedAnnealing};
use crate::temperature::initial_temperature;
use crate::MetaResult;
use cdd_core::eval::SequenceEvaluator;
use cdd_core::{Cost, JobSequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Asynchronous multi-chain SA (Fig. 7).
pub struct AsyncEnsemble<'a, E: SequenceEvaluator + ?Sized> {
    eval: &'a E,
    /// Number of independent chains ω (768 in the paper's GPU runs).
    pub chains: usize,
    /// Per-chain SA parameters.
    pub sa: SaParams,
}

impl<'a, E: SequenceEvaluator + Sync + ?Sized> AsyncEnsemble<'a, E> {
    /// Build an ensemble of `chains` chains.
    pub fn new(eval: &'a E, chains: usize, sa: SaParams) -> Self {
        AsyncEnsemble { eval, chains, sa }
    }

    /// Run all chains (seeded `base_seed + chain index`) and reduce.
    pub fn run(&self, base_seed: u64) -> MetaResult {
        let (result, _) = self.run_detailed(base_seed);
        result
    }

    /// Run and additionally return every chain's final objective (used by
    /// the async-vs-sync ablation to study the ensemble distribution).
    pub fn run_detailed(&self, base_seed: u64) -> (MetaResult, Vec<Cost>) {
        assert!(self.chains >= 1, "ensemble needs at least one chain");
        let sa = SimulatedAnnealing::new(self.eval, self.sa.clone());
        let results: Vec<MetaResult> = (0..self.chains)
            .into_par_iter()
            .map(|c| sa.run(base_seed.wrapping_add(c as u64)))
            .collect();
        let objectives: Vec<Cost> = results.iter().map(|r| r.objective).collect();
        let evaluations = results.iter().map(|r| r.evaluations).sum();
        let best = results
            .into_iter()
            .min_by_key(|r| r.objective)
            .expect("at least one chain");
        (MetaResult { evaluations, ..best }, objectives)
    }
}

/// Synchronous multi-chain SA (Fig. 8).
pub struct SyncEnsemble<'a, E: SequenceEvaluator + ?Sized> {
    eval: &'a E,
    /// Number of chains ω.
    pub chains: usize,
    /// Markov-chain length `M` per temperature level.
    pub markov_len: u64,
    /// Number of temperature levels `t`.
    pub levels: u64,
    /// Cooling schedule between levels.
    pub cooling: Cooling,
    /// Perturbation size.
    pub pert: usize,
}

impl<'a, E: SequenceEvaluator + Sync + ?Sized> SyncEnsemble<'a, E> {
    /// Build a synchronous ensemble with the paper-equivalent defaults
    /// (μ = 0.88 cooling, Pert = 4).
    pub fn new(eval: &'a E, chains: usize, markov_len: u64, levels: u64) -> Self {
        SyncEnsemble {
            eval,
            chains,
            markov_len,
            levels,
            cooling: Cooling::paper(),
            pert: crate::perturb::PAPER_PERT,
        }
    }

    /// Run the synchronized scheme.
    pub fn run(&self, base_seed: u64) -> MetaResult {
        assert!(self.chains >= 1, "ensemble needs at least one chain");
        let n = self.eval.n();
        let mut seed_rng = StdRng::seed_from_u64(base_seed);
        let t0 = initial_temperature(self.eval, 2000, &mut seed_rng);

        // Random initial state per chain (sⁱ in the paper's description).
        let mut states: Vec<(JobSequence, Cost)> = (0..self.chains)
            .map(|_| {
                let s = JobSequence::random(n, &mut seed_rng);
                let c = self.eval.evaluate(s.as_slice());
                (s, c)
            })
            .collect();
        let mut evaluations = self.chains as u64;

        let mut global_best = states
            .iter()
            .min_by_key(|(_, c)| *c)
            .map(|(s, c)| (s.clone(), *c))
            .expect("at least one chain");

        for level in 0..self.levels {
            let temp = self.cooling.temperature(t0, level);
            // Simulate one constant-temperature Markov chain per processor.
            let chain_results: Vec<(JobSequence, Cost, u64)> = states
                .par_iter()
                .enumerate()
                .map(|(i, (start, start_cost))| {
                    let mut rng = StdRng::seed_from_u64(
                        base_seed ^ (level.wrapping_mul(0x9E37) + i as u64).wrapping_mul(0x85EB_CA6B),
                    );
                    let mut cur = start.clone();
                    let mut cur_cost = *start_cost;
                    let mut cand = cur.clone();
                    let mut evals = 0u64;
                    for _ in 0..self.markov_len {
                        cand.clone_from(&cur);
                        shuffle_random_positions(&mut cand, self.pert, &mut rng);
                        let c = self.eval.evaluate(cand.as_slice());
                        evals += 1;
                        if metropolis_accept(cur_cost, c, temp, rng.gen::<f64>()) {
                            std::mem::swap(&mut cur, &mut cand);
                            cur_cost = c;
                        }
                    }
                    (cur, cur_cost, evals)
                })
                .collect();
            evaluations += chain_results.iter().map(|(_, _, e)| e).sum::<u64>();

            // Reduction: best final state becomes everyone's next start
            // (s_j^min in the paper).
            let (best_state, best_cost, _) = chain_results
                .iter()
                .min_by_key(|(_, c, _)| *c)
                .expect("at least one chain")
                .clone();
            if best_cost < global_best.1 {
                global_best = (best_state.clone(), best_cost);
            }
            for s in &mut states {
                s.0.clone_from(&best_state);
                s.1 = best_cost;
            }
        }

        MetaResult { best: global_best.0, objective: global_best.1, evaluations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::eval::CddEvaluator;
    use cdd_core::exact::best_sequence_bruteforce;
    use cdd_core::Instance;

    #[test]
    fn async_ensemble_beats_or_matches_single_chain() {
        let inst = Instance::paper_example_cdd();
        let eval = CddEvaluator::new(&inst);
        let params = SaParams { iterations: 100, ..Default::default() };
        let single = SimulatedAnnealing::new(&eval, params.clone()).run(500);
        let ensemble = AsyncEnsemble::new(&eval, 16, params).run(500);
        assert!(ensemble.objective <= single.objective);
    }

    #[test]
    fn async_ensemble_reaches_small_optimum() {
        let inst = Instance::paper_example_cdd();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let eval = CddEvaluator::new(&inst);
        let r = AsyncEnsemble::new(&eval, 8, SaParams::paper_1000()).run(1);
        assert_eq!(r.objective, optimum);
    }

    #[test]
    fn async_detailed_reports_every_chain() {
        let inst = Instance::paper_example_cdd();
        let eval = CddEvaluator::new(&inst);
        let params = SaParams { iterations: 50, ..Default::default() };
        let (best, objectives) = AsyncEnsemble::new(&eval, 12, params).run_detailed(3);
        assert_eq!(objectives.len(), 12);
        assert_eq!(best.objective, *objectives.iter().min().unwrap());
    }

    #[test]
    fn async_is_deterministic_per_seed() {
        let inst = Instance::paper_example_ucddcp();
        let eval = cdd_core::eval::UcddcpEvaluator::new(&inst);
        let params = SaParams { iterations: 40, ..Default::default() };
        let e = AsyncEnsemble::new(&eval, 6, params);
        assert_eq!(e.run(7).objective, e.run(7).objective);
    }

    #[test]
    fn sync_ensemble_reaches_small_optimum() {
        let inst = Instance::paper_example_cdd();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let eval = CddEvaluator::new(&inst);
        let r = SyncEnsemble::new(&eval, 8, 25, 40).run(2);
        assert_eq!(r.objective, optimum);
    }

    #[test]
    fn sync_ensemble_counts_evaluations() {
        let inst = Instance::paper_example_cdd();
        let eval = CddEvaluator::new(&inst);
        let r = SyncEnsemble::new(&eval, 4, 10, 5).run(3);
        // init evals + chains × markov × levels
        assert_eq!(r.evaluations, 4 + 4 * 10 * 5);
    }

    #[test]
    #[should_panic(expected = "at least one chain")]
    fn empty_async_ensemble_rejected() {
        let inst = Instance::paper_example_cdd();
        let eval = CddEvaluator::new(&inst);
        AsyncEnsemble::new(&eval, 0, SaParams::default()).run(0);
    }
}
