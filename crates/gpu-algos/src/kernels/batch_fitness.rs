//! Fused-launch fitness kernel: one grid evaluates several *requests* at
//! once, each with its own uploaded problem instance.
//!
//! Cross-request batching amortizes the per-launch overhead that dominates
//! small-`n` service traffic (a fused generation costs one launch instead of
//! one per request). Each request owns a contiguous block segment —
//! `blocks_per_req` blocks, `ensemble_per_req` threads — and every block
//! stages *its own request's* rates, so a thread's evaluation is
//! bit-identical to the single-request
//! [`FitnessKernel`](crate::kernels::FitnessKernel): both run the same
//! staging and evaluation bodies, so the same staged arrays, windows,
//! objective call, validation and clamp. Only the launch accounting
//! changes.
//!
//! Fusion requires all requests to share the problem kind and job count
//! (enforced at construction); due dates and every per-job array may differ
//! freely.

use crate::kernels::fitness::{evaluate_row, stage_rates, FitnessScratch, StagedRates};
use crate::layout::ProblemDevice;
use cuda_sim::{Buf, DeviceCtx, Kernel, ScratchArena};

/// Evaluates one job sequence per thread across a fused multi-request grid.
pub struct BatchFitnessKernel {
    /// Uploaded problems, one per request; request `r` owns blocks
    /// `[r·blocks_per_req, (r+1)·blocks_per_req)`.
    pub probs: Vec<ProblemDevice>,
    /// Sequences, row-major across the whole fused ensemble.
    pub seqs: Buf<u32>,
    /// Output objective per thread.
    pub out: Buf<i64>,
    /// Live threads per request.
    pub ensemble_per_req: usize,
    /// Blocks per request.
    pub blocks_per_req: usize,
    /// Per-block staged shared memory (so per request), indexed by block id.
    staged: ScratchArena<StagedRates>,
    /// Per-thread working vectors, indexed by global thread id.
    scratch: ScratchArena<FitnessScratch>,
}

impl BatchFitnessKernel {
    /// Build the fused kernel. Panics if the requests disagree on problem
    /// kind or job count — callers group compatible requests before fusing.
    pub fn new(
        probs: Vec<ProblemDevice>,
        seqs: Buf<u32>,
        out: Buf<i64>,
        ensemble_per_req: usize,
        blocks_per_req: usize,
    ) -> Self {
        assert!(!probs.is_empty(), "a fused launch needs at least one request");
        let (kind, n) = (probs[0].kind, probs[0].n);
        assert!(
            probs.iter().all(|p| p.kind == kind && p.n == n),
            "fused requests must share problem kind and job count"
        );
        let k = probs.len();
        BatchFitnessKernel {
            probs,
            seqs,
            out,
            ensemble_per_req,
            blocks_per_req,
            staged: ScratchArena::new(k * blocks_per_req),
            scratch: ScratchArena::new(k * ensemble_per_req),
        }
    }

    /// The problem a block belongs to.
    fn prob_of_block(&self, block_idx: usize) -> &ProblemDevice {
        &self.probs[block_idx / self.blocks_per_req]
    }
}

impl Kernel for BatchFitnessKernel {
    type Shared = ();
    type ThreadState = ();

    fn name(&self) -> &str {
        "batch_fitness"
    }

    fn make_shared(&self, _block_dim: usize) {}

    fn shared_mem_bytes(&self, _block_dim: usize) -> usize {
        self.probs[0].staged_shared_bytes()
    }

    fn num_phases(&self) -> usize {
        2
    }

    fn phase<C: DeviceCtx>(&self, phase: usize, ctx: &mut C, _shared: &mut (), _state: &mut ()) {
        let prob = self.prob_of_block(ctx.block_idx());
        if phase == 0 {
            // The owning request's rates — identical in shape and charge to
            // the single-request kernel's phase 0.
            stage_rates(ctx, prob, &self.staged);
            return;
        }

        // Phase 1: evaluate. `ensemble_per_req` live threads per segment;
        // the grid covers whole segments, so the live-thread guard is
        // segment-local.
        let gid = ctx.global_id();
        let local = gid % (self.blocks_per_req * ctx.block_dim());
        if local >= self.ensemble_per_req {
            return;
        }
        let d = ctx.read_const(prob.scalars, 0);
        self.staged.with_slot(ctx.block_idx(), |shared| {
            self.scratch.with_slot(gid, |scratch| {
                evaluate_row(ctx, prob, self.seqs, self.out, gid, d, shared, scratch);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::FitnessKernel;
    use cdd_core::eval::evaluator_for;
    use cdd_core::{Instance, JobSequence};
    use cuda_sim::{DeviceSpec, Gpu, LaunchConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(rng: &mut StdRng, n: usize) -> Instance {
        let p: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=20)).collect();
        let a: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=10)).collect();
        let b: Vec<i64> = (0..n).map(|_| rng.gen_range(1..=15)).collect();
        let d = (p.iter().sum::<i64>() as f64 * 0.55) as i64;
        Instance::cdd_from_arrays(&p, &a, &b, d).unwrap()
    }

    #[test]
    fn fused_evaluation_matches_solo_kernels_per_request() {
        let n = 12;
        let per_req = 64;
        let blocks = 2;
        let mut rng = StdRng::seed_from_u64(77);
        let insts: Vec<Instance> = (0..3).map(|_| random_instance(&mut rng, n)).collect();

        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let probs: Vec<ProblemDevice> =
            insts.iter().map(|i| ProblemDevice::upload(&mut gpu, i).unwrap()).collect();
        let total = insts.len() * per_req;
        let rows: Vec<JobSequence> =
            (0..total).map(|_| JobSequence::random(n, &mut rng)).collect();
        let flat: Vec<u32> = rows.iter().flat_map(|s| s.as_slice().iter().copied()).collect();
        let seqs = gpu.alloc::<u32>(total * n);
        gpu.h2d(seqs, &flat);
        let out = gpu.alloc::<i64>(total);

        let fused = BatchFitnessKernel::new(probs.clone(), seqs, out, per_req, blocks);
        gpu.launch(&fused, LaunchConfig::linear(insts.len() * blocks, 32), &[]).unwrap();
        let fused_out = gpu.d2h(out);

        // Each thread must agree with its request's CPU evaluator…
        for (r, inst) in insts.iter().enumerate() {
            let eval = evaluator_for(inst);
            for t in 0..per_req {
                assert_eq!(
                    fused_out[r * per_req + t],
                    eval.evaluate(rows[r * per_req + t].as_slice()),
                    "request {r} thread {t}"
                );
            }
        }

        // …and with the single-request kernel run over the same rows.
        for (r, prob) in probs.iter().enumerate() {
            let solo_seqs = gpu.alloc::<u32>(per_req * n);
            gpu.h2d(solo_seqs, &flat[r * per_req * n..(r + 1) * per_req * n]);
            let solo_out = gpu.alloc::<i64>(per_req);
            let solo = FitnessKernel::new(*prob, solo_seqs, solo_out, per_req, blocks);
            gpu.launch(&solo, LaunchConfig::linear(blocks, 32), &[]).unwrap();
            assert_eq!(
                gpu.d2h(solo_out),
                fused_out[r * per_req..(r + 1) * per_req],
                "request {r} fused != solo"
            );
        }
    }

    #[test]
    fn one_fused_launch_is_cheaper_than_k_solo_launches() {
        // The whole point of fusion: k requests pay one launch overhead.
        let n = 10;
        let per_req = 64;
        let blocks = 2;
        let k = 4;
        let mut rng = StdRng::seed_from_u64(3);
        let insts: Vec<Instance> = (0..k).map(|_| random_instance(&mut rng, n)).collect();
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let probs: Vec<ProblemDevice> =
            insts.iter().map(|i| ProblemDevice::upload(&mut gpu, i).unwrap()).collect();
        let total = k * per_req;
        let seqs = gpu.alloc::<u32>(total * n);
        let flat: Vec<u32> = (0..total)
            .flat_map(|_| JobSequence::random(n, &mut rng).as_slice().to_vec())
            .collect();
        gpu.h2d(seqs, &flat);
        let out = gpu.alloc::<i64>(total);

        let fused = BatchFitnessKernel::new(probs.clone(), seqs, out, per_req, blocks);
        let fused_stats =
            gpu.launch(&fused, LaunchConfig::linear(k * blocks, 32), &[]).unwrap();

        let mut solo_total = 0.0;
        for (r, prob) in probs.iter().enumerate() {
            let solo_seqs = gpu.alloc::<u32>(per_req * n);
            gpu.h2d(solo_seqs, &flat[r * per_req * n..(r + 1) * per_req * n]);
            let solo_out = gpu.alloc::<i64>(per_req);
            let solo = FitnessKernel::new(*prob, solo_seqs, solo_out, per_req, blocks);
            solo_total +=
                gpu.launch(&solo, LaunchConfig::linear(blocks, 32), &[]).unwrap().timing.seconds;
        }
        assert!(
            fused_stats.timing.seconds < solo_total,
            "fused ({}) should amortize launch overhead vs {k} solo launches ({solo_total})",
            fused_stats.timing.seconds
        );
    }

    #[test]
    fn rejects_incompatible_requests() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let a = ProblemDevice::upload(&mut gpu, &Instance::paper_example_cdd()).unwrap();
        let b = ProblemDevice::upload(&mut gpu, &Instance::paper_example_ucddcp()).unwrap();
        let seqs = gpu.alloc::<u32>(10);
        let out = gpu.alloc::<i64>(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BatchFitnessKernel::new(vec![a, b], seqs, out, 1, 1)
        }));
        assert!(r.is_err(), "mixed kinds must be rejected");
    }
}
