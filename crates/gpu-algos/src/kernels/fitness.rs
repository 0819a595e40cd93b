//! The fitness kernel (paper Section VI-A).
//!
//! Phase 0 cooperatively stages the earliness/tardiness (and compression)
//! penalty rates into **shared memory** — "because this memory has shorter
//! latency than global memory" — and the engine's phase boundary plays the
//! role of the `__syncthreads()` barrier that "ensures that all the write
//! operations on the shared memory are finished before reading them".
//!
//! Phase 1 reads the thread's job sequence and the (deliberately uncached)
//! processing times from global memory and runs the O(n) fixed-sequence
//! optimizer of `cdd-core` as the fitness function.

use crate::layout::ProblemDevice;
use cdd_core::cdd_optimal::cdd_objective_raw;
use cdd_core::ucddcp_optimal::ucddcp_objective_raw;
use cdd_core::ProblemKind;
use cuda_sim::{Buf, DeviceCtx, Kernel, ScratchArena};

/// Sentinel energy written when fault injection corrupted a thread's inputs
/// beyond evaluation (non-permutation sequence, out-of-range data). Large
/// enough to lose every argmin against a genuine objective, yet below the
/// packed-argmin value cap (`2^42`), so reductions stay well-defined.
pub const CORRUPT_ENERGY: i64 = 1 << 40;

/// Upper bound accepted for problem data (processing times, penalty rates)
/// when validating under fault injection. Benchmark data is orders of
/// magnitude below this; a high bit flip lands far above it.
pub(crate) const VALUE_CAP: i64 = 1 << 20;

/// Evaluates one job sequence per thread.
///
/// The kernel is built once per pipeline run ([`FitnessKernel::new`]) and
/// owns persistent scratch arenas: the per-block staged rates and the
/// per-thread working vectors survive across launches, so a steady-state
/// generation performs zero heap allocation (the vectors are resized on the
/// first launch and fully overwritten on every one).
pub struct FitnessKernel {
    /// Uploaded problem data.
    pub prob: ProblemDevice,
    /// Sequences, row-major: thread `t` owns `seqs[t·n .. (t+1)·n]`.
    pub seqs: Buf<u32>,
    /// Output objective per thread.
    pub out: Buf<i64>,
    /// Number of live threads (threads with `gid ≥ ensemble` idle).
    pub ensemble: usize,
    /// Per-block staged shared memory, indexed by block id.
    staged: ScratchArena<StagedRates>,
    /// Per-thread working vectors, indexed by global thread id.
    scratch: ScratchArena<FitnessScratch>,
}

/// Penalty rates staged in shared memory.
#[derive(Default)]
pub struct StagedRates {
    alpha: Vec<i64>,
    beta: Vec<i64>,
    gamma: Vec<i64>,
}

/// Per-thread registers/local memory: the simulator's staged copies of the
/// thread's row and the problem arrays (the native backend reads those in
/// place and never fills these).
#[derive(Default)]
pub struct FitnessScratch {
    seq: Vec<u32>,
    p: Vec<i64>,
    m: Vec<i64>,
    /// Seen-marks for the permutation check under fault injection.
    marks: Vec<bool>,
}

impl FitnessKernel {
    /// Build the kernel for launches of up to `blocks` blocks, evaluating
    /// `ensemble` live threads.
    pub fn new(
        prob: ProblemDevice,
        seqs: Buf<u32>,
        out: Buf<i64>,
        ensemble: usize,
        blocks: usize,
    ) -> Self {
        // Job ids travel through u32 sequence buffers; checking once here
        // makes every `n as u32`/`n as i64` cast downstream exact.
        assert!(
            u32::try_from(prob.n).is_ok(),
            "sequence length {} exceeds the u32 job-id domain",
            prob.n
        );
        FitnessKernel {
            prob,
            seqs,
            out,
            ensemble,
            staged: ScratchArena::new(blocks),
            scratch: ScratchArena::new(ensemble),
        }
    }
}

/// Validate the thread's staged inputs before evaluating. Only consulted
/// under fault injection: a bit flip can turn a job id into an
/// out-of-bounds index, a processing time into an overflowing magnitude,
/// or (UCDDCP) break the unrestricted-due-date precondition — all of
/// which the evaluators are entitled to assume away on clean hardware.
fn inputs_valid(
    prob: &ProblemDevice,
    shared: &StagedRates,
    scratch: &mut FitnessScratch,
    d: i64,
) -> bool {
    let n = prob.n;
    scratch.marks.clear();
    scratch.marks.resize(n, false);
    for &j in &scratch.seq {
        // u32 → usize is a widening cast on every supported target;
        // a bit-flipped id is caught by the bounds check below, not
        // silently truncated into a valid-looking index.
        let j = j as usize;
        if j >= n || scratch.marks[j] {
            return false;
        }
        scratch.marks[j] = true;
    }
    let rates_ok = |v: &[i64]| v.iter().all(|&x| (0..=VALUE_CAP).contains(&x));
    if !scratch.p.iter().all(|&x| (1..=VALUE_CAP).contains(&x))
        || !rates_ok(&shared.alpha)
        || !rates_ok(&shared.beta)
    {
        return false;
    }
    if prob.kind == ProblemKind::Ucddcp {
        if !rates_ok(&shared.gamma)
            || !scratch.m.iter().zip(&scratch.p).all(|(&m, &p)| (0..=p).contains(&m))
        {
            return false;
        }
        // The UCDDCP evaluator requires an unrestricted due date (Σp ≤ d).
        if scratch.p.iter().sum::<i64>() > d {
            return false;
        }
    }
    true
}

/// Phase 0 of both fitness kernels: cooperative staging of `prob`'s rates
/// into the block's shared memory. Threads conceptually load elements
/// tid, tid+blockDim, …; the engine performs the copy once and every
/// thread charges its share of the traffic.
pub(crate) fn stage_rates<C: DeviceCtx>(
    ctx: &mut C,
    prob: &ProblemDevice,
    staged: &ScratchArena<StagedRates>,
) {
    let n = prob.n;
    if ctx.thread_idx() == 0 {
        staged.with_slot(ctx.block_idx(), |shared| {
            shared.alpha.resize(n, 0);
            ctx.cooperative_read(prob.alpha, 0, &mut shared.alpha);
            shared.beta.resize(n, 0);
            ctx.cooperative_read(prob.beta, 0, &mut shared.beta);
            if prob.kind == ProblemKind::Ucddcp {
                shared.gamma.resize(n, 0);
                ctx.cooperative_read(prob.gamma, 0, &mut shared.gamma);
            }
        });
    }
    let arrays = if prob.kind == ProblemKind::Ucddcp { 3 } else { 2 };
    let share = n.div_ceil(ctx.block_dim()) as u64;
    ctx.charge_global(arrays * share);
    ctx.charge_shared(arrays * share);
}

/// Phase 1 of both fitness kernels (past the barrier, the staged rates are
/// visible): score thread `gid`'s row of `seqs` against `prob` and write
/// the objective to `out[gid]`.
///
/// The simulator must observe (charge, race-track, fault-filter) every
/// read of the row and of `p`/`m`, so it stages them into `scratch`; the
/// native backend reads all three in place through zero-copy windows —
/// legal because no thread writes them during a fitness launch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_row<C: DeviceCtx>(
    ctx: &mut C,
    prob: &ProblemDevice,
    seqs: Buf<u32>,
    out: Buf<i64>,
    gid: usize,
    d: i64,
    shared: &StagedRates,
    scratch: &mut FitnessScratch,
) {
    let n = prob.n;
    if ctx.global_window(seqs, gid * n, n).is_none() {
        scratch.seq.resize(n, 0);
        ctx.read_slice_into(seqs, gid * n, &mut scratch.seq);
    }
    if ctx.global_window(prob.p, 0, n).is_none() {
        scratch.p.resize(n, 0);
        ctx.read_slice_into(prob.p, 0, &mut scratch.p);
    }
    if prob.kind == ProblemKind::Ucddcp && ctx.global_window(prob.m, 0, n).is_none() {
        scratch.m.resize(n, 0);
        ctx.read_slice_into(prob.m, 0, &mut scratch.m);
    }

    // Under fault injection, a corrupted input set is detected up front
    // and scored with the sentinel instead of evaluated (the evaluators
    // would index out of bounds or overflow on it). The clean path skips
    // the validation entirely, so timing and results are bit-identical
    // with no plan installed. (Fault plans are sim-only, so the staged
    // copies the validation reads always exist when this fires.)
    if ctx.fault_injection_active() && !inputs_valid(prob, shared, scratch, d) {
        ctx.charge_alu(4 * n as u64); // the validation scan
        ctx.write(out, gid, CORRUPT_ENERGY);
        return;
    }

    // The modeled cost of the evaluation: ~2 passes over the shared rates
    // (3 for UCDDCP) plus register arithmetic. The modeled-clock pins fix
    // it, whatever form the host evaluator takes.
    match prob.kind {
        ProblemKind::Cdd => {
            ctx.charge_shared(2 * n as u64);
            ctx.charge_alu(8 * n as u64);
        }
        ProblemKind::Ucddcp => {
            ctx.charge_shared(3 * n as u64);
            ctx.charge_alu(12 * n as u64);
        }
    }
    let objective = {
        let ctx = &*ctx;
        let p = ctx.global_window(prob.p, 0, n).unwrap_or(&scratch.p);
        let m = match prob.kind {
            ProblemKind::Cdd => &[][..],
            ProblemKind::Ucddcp => ctx.global_window(prob.m, 0, n).unwrap_or(&scratch.m),
        };
        match ctx.global_window(seqs, gid * n, n) {
            Some(row) => objective(prob.kind, p, m, shared, d, row),
            None => objective(prob.kind, p, m, shared, d, &scratch.seq),
        }
    };
    // Flipped-but-valid data can still produce objectives past the
    // packed-argmin range; the clamp keeps downstream reductions safe.
    let objective = if ctx.fault_injection_active() {
        objective.clamp(0, CORRUPT_ENERGY)
    } else {
        objective
    };
    ctx.write(out, gid, objective);
}

/// The fixed-sequence optimum of `row` (`m` is ignored for CDD).
fn objective<J: Copy + Into<u64>>(
    kind: ProblemKind,
    p: &[i64],
    m: &[i64],
    shared: &StagedRates,
    d: i64,
    row: &[J],
) -> i64 {
    match kind {
        ProblemKind::Cdd => cdd_objective_raw(p, &shared.alpha, &shared.beta, d, row),
        ProblemKind::Ucddcp => {
            ucddcp_objective_raw(p, m, &shared.alpha, &shared.beta, &shared.gamma, d, row)
        }
    }
}

impl Kernel for FitnessKernel {
    // Shared memory and thread state live in the kernel's persistent
    // arenas (keyed by block id / global id) instead of per-launch
    // `make_shared`/`Default` values, so launches allocate nothing.
    type Shared = ();
    type ThreadState = ();

    fn name(&self) -> &str {
        "fitness"
    }

    fn make_shared(&self, _block_dim: usize) {}

    fn shared_mem_bytes(&self, _block_dim: usize) -> usize {
        self.prob.staged_shared_bytes()
    }

    fn num_phases(&self) -> usize {
        2
    }

    fn phase<C: DeviceCtx>(&self, phase: usize, ctx: &mut C, _shared: &mut (), _state: &mut ()) {
        if phase == 0 {
            stage_rates(ctx, &self.prob, &self.staged);
            return;
        }
        let gid = ctx.global_id();
        if gid >= self.ensemble {
            return;
        }
        let d = ctx.read_const(self.prob.scalars, 0);
        // A charged read in every build profile: the modeled clock must
        // not depend on whether debug assertions are compiled in.
        let n = ctx.read_const(self.prob.scalars, 1);
        debug_assert_eq!(n, self.prob.n as i64);
        self.staged.with_slot(ctx.block_idx(), |shared| {
            self.scratch.with_slot(gid, |scratch| {
                evaluate_row(ctx, &self.prob, self.seqs, self.out, gid, d, shared, scratch);
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ProblemDevice;
    use cdd_core::eval::evaluator_for;
    use cdd_core::{Instance, JobSequence};
    use cuda_sim::{DeviceSpec, Gpu, LaunchConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_matches_cpu(inst: &Instance, threads: usize, block: usize) {
        let n = inst.n();
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let prob = ProblemDevice::upload(&mut gpu, inst).unwrap();

        let mut rng = StdRng::seed_from_u64(42);
        let seqs: Vec<JobSequence> =
            (0..threads).map(|_| JobSequence::random(n, &mut rng)).collect();
        let flat: Vec<u32> = seqs.iter().flat_map(|s| s.as_slice().iter().copied()).collect();
        let seq_buf = gpu.alloc::<u32>(threads * n);
        gpu.h2d(seq_buf, &flat);
        let out = gpu.alloc::<i64>(threads);

        let kernel =
            FitnessKernel::new(prob, seq_buf, out, threads, threads.div_ceil(block));
        let stats = gpu
            .launch(&kernel, LaunchConfig::cover(threads, block), &[])
            .unwrap();
        assert!(stats.timing.seconds > 0.0);

        let device = gpu.d2h(out);
        let eval = evaluator_for(inst);
        for (t, seq) in seqs.iter().enumerate() {
            assert_eq!(
                device[t],
                eval.evaluate(seq.as_slice()),
                "thread {t} disagrees with the CPU evaluator"
            );
        }
    }

    #[test]
    fn cdd_fitness_matches_cpu_evaluator() {
        check_matches_cpu(&Instance::paper_example_cdd(), 64, 32);
    }

    #[test]
    fn ucddcp_fitness_matches_cpu_evaluator() {
        check_matches_cpu(&Instance::paper_example_ucddcp(), 48, 16);
    }

    #[test]
    fn paper_identity_sequence_scores_81() {
        let inst = Instance::paper_example_cdd();
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let prob = ProblemDevice::upload(&mut gpu, &inst).unwrap();
        let seq_buf = gpu.alloc::<u32>(5);
        gpu.h2d(seq_buf, &[0, 1, 2, 3, 4]);
        let out = gpu.alloc::<i64>(1);
        let kernel = FitnessKernel::new(prob, seq_buf, out, 1, 1);
        gpu.launch(&kernel, LaunchConfig::linear(1, 32), &[]).unwrap();
        assert_eq!(gpu.d2h(out)[0], 81);
    }

    #[test]
    fn idle_threads_do_not_touch_memory() {
        // ensemble = 1 but 64 threads: only out[0] may be written.
        let inst = Instance::paper_example_cdd();
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let prob = ProblemDevice::upload(&mut gpu, &inst).unwrap();
        let seq_buf = gpu.alloc::<u32>(5);
        gpu.h2d(seq_buf, &[4, 3, 2, 1, 0]);
        let out = gpu.alloc::<i64>(2);
        gpu.h2d(out, &[-1, -1]);
        let kernel = FitnessKernel::new(prob, seq_buf, out, 1, 2);
        gpu.launch(&kernel, LaunchConfig::linear(2, 32), &[]).unwrap();
        let host = gpu.d2h(out);
        assert_ne!(host[0], -1);
        assert_eq!(host[1], -1);
    }

    #[test]
    fn shared_footprint_scales_with_problem() {
        let inst = Instance::paper_example_ucddcp();
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let prob = ProblemDevice::upload(&mut gpu, &inst).unwrap();
        let seq_buf = gpu.alloc::<u32>(5);
        let out = gpu.alloc::<i64>(1);
        let k = FitnessKernel::new(prob, seq_buf, out, 1, 1);
        assert_eq!(k.shared_mem_bytes(192), 3 * 5 * 8);
    }
}
