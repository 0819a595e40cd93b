//! Criterion micro-benchmarks of the two raw objective kernels — the exact
//! functions the simulated GPU's fitness kernel calls per thread — plus an
//! end-to-end SA-generation benchmark that exercises the full simulated
//! launch path (perturb → fitness → accept → reduce).
//!
//! An evaluator's speed depends on the rows it scores: branches predict
//! well on rows near the V-shape and badly on random ones, where selects
//! win. So each evaluator is timed at n ∈ {50, 200, 500} on two kinds of
//! row, cycling through the paper's 768 threads' worth: the V-shaped start
//! with a few swaps per thread that `initial_ensemble` builds (what SA and
//! DPSO score for most of a run), and uniformly random permutations.

use cdd_core::cdd_optimal::cdd_objective_raw;
use cdd_core::ucddcp_optimal::ucddcp_objective_raw;
use cdd_gpu::{initial_ensemble, run_gpu_sa, GpuSaParams, InitStrategy};
use cdd_instances::{cdd_instance, ucddcp_instance};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Rows each evaluator cycles through: one per thread of the paper's 4×192.
const ROWS: usize = 768;

fn bench_objective_raw(c: &mut Criterion) {
    let mut group = c.benchmark_group("objective_raw");
    group.sample_size(20_000).measurement_time(Duration::from_secs(1));
    for n in [50usize, 200, 500] {
        let cdd = cdd_instance(n, 1, 0.6);
        let ucddcp = ucddcp_instance(n, 1);
        for (rows, init) in
            [("v-shaped", InitStrategy::VShapedSpread), ("random", InitStrategy::Random)]
        {
            let (p, _, alpha, beta, _) = cdd.to_arrays();
            let d = cdd.due_date();
            let seqs = initial_ensemble(&cdd, ROWS, init, &mut StdRng::seed_from_u64(7));
            let mut next = seqs.chunks_exact(n).cycle();
            group.bench_with_input(BenchmarkId::new(&format!("cdd/{rows}"), n), &n, |b, _| {
                b.iter(|| cdd_objective_raw(&p, &alpha, &beta, d, next.next().expect("cycles")))
            });

            let (p, m, alpha, beta, gamma) = ucddcp.to_arrays();
            let d = ucddcp.due_date();
            let seqs = initial_ensemble(&ucddcp, ROWS, init, &mut StdRng::seed_from_u64(7));
            let mut next = seqs.chunks_exact(n).cycle();
            group.bench_with_input(BenchmarkId::new(&format!("ucddcp/{rows}"), n), &n, |b, _| {
                b.iter(|| {
                    let seq = next.next().expect("cycles");
                    ucddcp_objective_raw(&p, &m, &alpha, &beta, &gamma, d, seq)
                })
            });
        }
    }
    group.finish();
}

fn bench_sa_generations(c: &mut Criterion) {
    let mut group = c.benchmark_group("gpu_sa_generations");
    group.sample_size(10).measurement_time(Duration::from_secs(2));
    let inst = cdd_instance(50, 1, 0.6);
    let params = GpuSaParams { blocks: 2, block_size: 32, iterations: 20, ..GpuSaParams::default() };
    group.bench_function("n50_20gen", |b| {
        b.iter(|| run_gpu_sa(&inst, &params).expect("clean run").objective)
    });
    group.finish();
}

criterion_group!(benches, bench_objective_raw, bench_sa_generations);
criterion_main!(benches);
