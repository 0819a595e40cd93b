//! Fitness evaluation — the interface between layer (ii) (this crate's O(n)
//! fixed-sequence optimizers) and layer (i) (the metaheuristics in
//! `cdd-meta` / `cdd-gpu`).
//!
//! Evaluators cache the instance data in flat parallel arrays (the layout
//! the GPU kernels also use) so that the hot fitness loop touches contiguous
//! memory and performs zero allocation per call.

use crate::cdd_optimal::cdd_objective_raw;
use crate::ucddcp_optimal::ucddcp_objective_raw;
use crate::{Cost, Instance, ProblemKind, Time};

/// A fitness function over job sequences (lower is better).
///
/// Implementations must be cheap to call repeatedly: the metaheuristics
/// evaluate millions of sequences.
pub trait SequenceEvaluator: Sync {
    /// Number of jobs any evaluated sequence must have.
    fn n(&self) -> usize;

    /// Objective value of the sequence (a permutation of `0..n` given as a
    /// position → job-id slice).
    fn evaluate(&self, seq: &[u32]) -> Cost;
}

/// Zero-allocation CDD fitness function.
#[derive(Debug, Clone)]
pub struct CddEvaluator {
    p: Vec<Time>,
    alpha: Vec<Time>,
    beta: Vec<Time>,
    d: Time,
}

impl CddEvaluator {
    /// Cache the instance data. Works for both problem kinds (for UCDDCP it
    /// evaluates the *uncompressed* objective).
    pub fn new(inst: &Instance) -> Self {
        let (p, _, alpha, beta, _) = inst.to_arrays();
        CddEvaluator { p, alpha, beta, d: inst.due_date() }
    }
}

impl SequenceEvaluator for CddEvaluator {
    fn n(&self) -> usize {
        self.p.len()
    }

    #[inline]
    fn evaluate(&self, seq: &[u32]) -> Cost {
        debug_assert_eq!(seq.len(), self.p.len());
        cdd_objective_raw(&self.p, &self.alpha, &self.beta, self.d, seq)
    }
}

/// Zero-allocation UCDDCP fitness function.
#[derive(Debug, Clone)]
pub struct UcddcpEvaluator {
    p: Vec<Time>,
    m: Vec<Time>,
    alpha: Vec<Time>,
    beta: Vec<Time>,
    gamma: Vec<Time>,
    d: Time,
}

impl UcddcpEvaluator {
    /// Cache the instance data.
    ///
    /// # Panics
    /// Panics if the instance is not a UCDDCP instance.
    pub fn new(inst: &Instance) -> Self {
        assert_eq!(inst.kind(), ProblemKind::Ucddcp, "UcddcpEvaluator requires UCDDCP");
        let (p, m, alpha, beta, gamma) = inst.to_arrays();
        UcddcpEvaluator { p, m, alpha, beta, gamma, d: inst.due_date() }
    }
}

impl SequenceEvaluator for UcddcpEvaluator {
    fn n(&self) -> usize {
        self.p.len()
    }

    #[inline]
    fn evaluate(&self, seq: &[u32]) -> Cost {
        debug_assert_eq!(seq.len(), self.p.len());
        ucddcp_objective_raw(&self.p, &self.m, &self.alpha, &self.beta, &self.gamma, self.d, seq)
    }
}

/// Build the appropriate evaluator for an instance's problem kind.
///
/// The returned evaluator is `Sync` as well as `Send`: it holds only
/// immutable per-instance arrays, so threads (the CPU ensembles of
/// `cdd-meta`, for one) can share one evaluator without cloning.
pub fn evaluator_for(inst: &Instance) -> Box<dyn SequenceEvaluator + Send + Sync> {
    match inst.kind() {
        ProblemKind::Cdd => Box::new(CddEvaluator::new(inst)),
        ProblemKind::Ucddcp => Box::new(UcddcpEvaluator::new(inst)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize_cdd_sequence, optimize_ucddcp_sequence, Instance, JobSequence};

    #[test]
    fn cdd_evaluator_matches_optimizer() {
        let inst = Instance::paper_example_cdd();
        let eval = CddEvaluator::new(&inst);
        let seq = JobSequence::identity(5);
        assert_eq!(eval.n(), 5);
        assert_eq!(eval.evaluate(seq.as_slice()), optimize_cdd_sequence(&inst, &seq).objective);
        assert_eq!(eval.evaluate(seq.as_slice()), 81);
    }

    #[test]
    fn ucddcp_evaluator_matches_optimizer() {
        let inst = Instance::paper_example_ucddcp();
        let eval = UcddcpEvaluator::new(&inst);
        let seq = JobSequence::from_vec(vec![3, 1, 4, 0, 2]).unwrap();
        assert_eq!(
            eval.evaluate(seq.as_slice()),
            optimize_ucddcp_sequence(&inst, &seq).objective
        );
    }

    #[test]
    fn evaluator_for_dispatches_on_kind() {
        let seq = JobSequence::identity(5);
        let e = evaluator_for(&Instance::paper_example_cdd());
        assert_eq!(e.evaluate(seq.as_slice()), 81);
        let e = evaluator_for(&Instance::paper_example_ucddcp());
        assert_eq!(e.evaluate(seq.as_slice()), 77);
    }

    #[test]
    #[should_panic(expected = "requires UCDDCP")]
    fn ucddcp_evaluator_rejects_cdd_instance() {
        UcddcpEvaluator::new(&Instance::paper_example_cdd());
    }
}
