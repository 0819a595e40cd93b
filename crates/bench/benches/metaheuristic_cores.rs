//! Criterion benchmarks of the CPU metaheuristic cores — the baselines the
//! speed-up tables divide by — plus the perturbation and crossover
//! operators.

use cdd_core::eval::{CddEvaluator, SequenceEvaluator};
use cdd_core::JobSequence;
use cdd_instances::cdd_instance;
use cdd_meta::dpso::{one_point_crossover, two_point_crossover};
use cdd_meta::perturb::shuffle_random_positions;
use cdd_meta::{Dpso, DpsoParams, SaParams, SimulatedAnnealing};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench_sa_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_sa_100_iterations");
    group.sample_size(20).measurement_time(Duration::from_secs(1));
    for n in [20usize, 100, 500] {
        let inst = cdd_instance(n, 1, 0.6);
        let eval = CddEvaluator::new(&inst);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let sa = SimulatedAnnealing::new(
                &eval,
                SaParams { iterations: 100, t0: Some(100.0), ..Default::default() },
            );
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                sa.run(seed).objective
            })
        });
    }
    group.finish();
}

fn bench_dpso_swarm(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_dpso_20_particles_50_iterations");
    group.sample_size(10).measurement_time(Duration::from_secs(1));
    for n in [20usize, 100] {
        let inst = cdd_instance(n, 1, 0.6);
        let eval = CddEvaluator::new(&inst);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let dpso = Dpso::new(
                &eval,
                DpsoParams { particles: 20, iterations: 50, ..Default::default() },
            );
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                dpso.run(seed).objective
            })
        });
    }
    group.finish();
}

fn bench_operators(c: &mut Criterion) {
    let mut group = c.benchmark_group("operators_n1000");
    group.sample_size(50).measurement_time(Duration::from_secs(1));
    let n = 1000;
    let mut rng = StdRng::seed_from_u64(1);
    let a = JobSequence::random(n, &mut rng);
    let b_seq = JobSequence::random(n, &mut rng);

    group.bench_function("fisher_yates_window_pert4", |b| {
        let mut s = a.clone();
        b.iter(|| shuffle_random_positions(&mut s, 4, &mut rng))
    });
    group.bench_function("one_point_crossover", |b| {
        let mut out = Vec::with_capacity(n + 1);
        let mut marks = vec![false; n];
        b.iter(|| one_point_crossover(a.as_slice(), b_seq.as_slice(), n / 2, &mut marks, &mut out))
    });
    group.bench_function("two_point_crossover", |b| {
        let mut out = Vec::with_capacity(n + 1);
        let mut marks = vec![false; n];
        let (lo, hi) = (n / 4, 3 * n / 4);
        b.iter(|| two_point_crossover(a.as_slice(), b_seq.as_slice(), lo, hi, &mut marks, &mut out))
    });
    let inst = cdd_instance(1000, 1, 0.6);
    let eval = CddEvaluator::new(&inst);
    group.bench_function("fitness_eval_n1000", |b| b.iter(|| eval.evaluate(a.as_slice())));
    group.finish();
}

criterion_group!(benches, bench_sa_chain, bench_dpso_swarm, bench_operators);
criterion_main!(benches);
