//! A (μ+λ) evolution strategy on permutations.
//!
//! Stands in for the metaheuristics of Feldmann & Biskup \[18\] (evolutionary
//! strategies, threshold accepting, …), which the paper uses as its second
//! CPU baseline in Table III. The ES maintains μ parents; each generation
//! creates λ offspring by mutating random parents (swap / insert / window
//! shuffle) and keeps the best μ of parents ∪ offspring.

use crate::perturb::{random_insert, random_swap, shuffle_random_positions};
use crate::MetaResult;
use cdd_core::eval::SequenceEvaluator;
use cdd_core::{Cost, JobSequence};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// (μ+λ) ES parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct EsParams {
    /// Parent population size μ.
    pub mu: usize,
    /// Offspring per generation λ.
    pub lambda: usize,
    /// Generations.
    pub generations: u64,
}

impl Default for EsParams {
    fn default() -> Self {
        EsParams { mu: 10, lambda: 20, generations: 500 }
    }
}

/// A runnable ES bound to a fitness function.
pub struct EvolutionStrategy<'a, E: SequenceEvaluator + ?Sized> {
    eval: &'a E,
    params: EsParams,
}

impl<'a, E: SequenceEvaluator + ?Sized> EvolutionStrategy<'a, E> {
    /// Bind `params` to a fitness function.
    pub fn new(eval: &'a E, params: EsParams) -> Self {
        EvolutionStrategy { eval, params }
    }

    /// Run from a random population derived from `seed`.
    pub fn run(&self, seed: u64) -> MetaResult {
        assert!(self.params.mu >= 1 && self.params.lambda >= 1, "μ and λ must be >= 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.eval.n();
        let mut evaluations = 0u64;

        let mut population: Vec<(JobSequence, Cost)> = (0..self.params.mu)
            .map(|_| {
                let s = JobSequence::random(n, &mut rng);
                let c = self.eval.evaluate(s.as_slice());
                evaluations += 1;
                (s, c)
            })
            .collect();
        population.sort_by_key(|(_, c)| *c);

        for _ in 0..self.params.generations {
            for _ in 0..self.params.lambda {
                let parent = rng.gen_range(0..self.params.mu.min(population.len()));
                let mut child = population[parent].0.clone();
                match rng.gen_range(0..3u8) {
                    0 => random_swap(&mut child, &mut rng),
                    1 => random_insert(&mut child, &mut rng),
                    _ => shuffle_random_positions(&mut child, 4, &mut rng),
                }
                let cost = self.eval.evaluate(child.as_slice());
                evaluations += 1;
                population.push((child, cost));
            }
            // (μ+λ) selection: keep the best μ of parents ∪ offspring.
            population.sort_by_key(|(_, c)| *c);
            population.truncate(self.params.mu);
        }

        let (best, objective) = population.swap_remove(0);
        MetaResult { best, objective, evaluations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::eval::CddEvaluator;
    use cdd_core::exact::best_sequence_bruteforce;
    use cdd_core::Instance;

    #[test]
    fn es_finds_small_optimum() {
        let inst = Instance::paper_example_cdd();
        let (_, optimum) = best_sequence_bruteforce(&inst);
        let eval = CddEvaluator::new(&inst);
        let es = EvolutionStrategy::new(&eval, EsParams { mu: 5, lambda: 10, generations: 200 });
        assert_eq!(es.run(11).objective, optimum);
    }

    #[test]
    fn es_is_deterministic_and_counts_evaluations() {
        let inst = Instance::paper_example_cdd();
        let eval = CddEvaluator::new(&inst);
        let es = EvolutionStrategy::new(&eval, EsParams { mu: 3, lambda: 6, generations: 10 });
        let a = es.run(1);
        let b = es.run(1);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.evaluations, 3 + 6 * 10);
    }

    #[test]
    fn selection_is_elitist() {
        // Objective of the returned best can never be worse than any parent
        // from an earlier generation; cheap check: longer runs don't regress.
        let inst = Instance::paper_example_ucddcp();
        let eval = cdd_core::eval::UcddcpEvaluator::new(&inst);
        let short = EvolutionStrategy::new(&eval, EsParams { mu: 4, lambda: 8, generations: 5 });
        let long = EvolutionStrategy::new(&eval, EsParams { mu: 4, lambda: 8, generations: 100 });
        assert!(long.run(9).objective <= short.run(9).objective);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn zero_mu_rejected() {
        let inst = Instance::paper_example_cdd();
        let eval = CddEvaluator::new(&inst);
        EvolutionStrategy::new(&eval, EsParams { mu: 0, lambda: 1, generations: 1 }).run(0);
    }
}
