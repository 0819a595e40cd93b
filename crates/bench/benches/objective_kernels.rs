//! Criterion micro-benchmarks of the two raw objective kernels — the exact
//! functions the simulated GPU's fitness kernel calls per thread — plus an
//! end-to-end SA-generation benchmark that exercises the full simulated
//! launch path (perturb → fitness → accept → reduce).

use cdd_core::cdd_optimal::cdd_objective_raw;
use cdd_core::ucddcp_optimal::ucddcp_objective_raw;
use cdd_core::JobSequence;
use cdd_gpu::{run_gpu_sa, GpuSaParams};
use cdd_instances::{cdd_instance, ucddcp_instance};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn bench_objective_raw(c: &mut Criterion) {
    let mut group = c.benchmark_group("objective_raw");
    group.sample_size(20).measurement_time(Duration::from_secs(1));
    for n in [10usize, 100, 1000] {
        let inst = cdd_instance(n, 1, 0.6);
        let (p, _, alpha, beta, _) = inst.to_arrays();
        let d = inst.due_date();
        let seq = JobSequence::identity(n);
        group.bench_with_input(BenchmarkId::new("cdd", n), &n, |b, _| {
            b.iter(|| cdd_objective_raw(&p, &alpha, &beta, d, seq.as_slice()))
        });

        let inst = ucddcp_instance(n, 1);
        let (p, m, alpha, beta, gamma) = inst.to_arrays();
        let d = inst.due_date();
        group.bench_with_input(BenchmarkId::new("ucddcp", n), &n, |b, _| {
            b.iter(|| ucddcp_objective_raw(&p, &m, &alpha, &beta, &gamma, d, seq.as_slice()))
        });
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
