//! DPSO device kernels (paper Section VII).
//!
//! One particle per thread. The position update implements Eq. (3) of the
//! paper with the permutation operators of Pan et al. (shared with the CPU
//! implementation in `cdd-meta::dpso`): swap velocity `F₁`, one-point
//! crossover `F₂` against the personal best, two-point crossover `F₃`
//! against the swarm best.

use cdd_meta::dpso::{one_point_crossover, two_point_crossover};
use cuda_sim::reduce::unpack_argmin;
use cuda_sim::{Buf, DeviceCtx, Kernel, ScratchArena, TelemetryRing};

/// Telemetry probe handed to the personal-best kernel on sampled runs.
/// Probe access goes through the simulator's instrumentation port, so
/// carrying one changes no result, cost, or fault behaviour (see
/// `cuda_sim::telemetry`).
#[derive(Debug, Clone, Copy)]
pub struct DpsoProbe {
    /// Destination ring.
    pub ring: TelemetryRing,
    /// Ring slot for this generation; `None` still counts personal-best
    /// improvements but records no sample.
    pub slot: Option<usize>,
    /// Swarm-best row as of the *start* of the generation (the broadcast
    /// kernel that crowns this generation's winner runs after the
    /// personal-best update), used for the Hamming-diversity proxy.
    pub gbest: Buf<u32>,
}

/// Position update: `p ← c₂ ⊕ F₃(c₁ ⊕ F₂(w ⊕ F₁(p), pbest), gbest)`.
///
/// Built once per pipeline run ([`DpsoUpdateKernel::new`]); each particle's
/// row, crossover output and crossover marks persist in a scratch arena
/// across launches, and the crossovers compact into them without
/// allocating, so steady-state generations allocate nothing. On the native
/// backend the personal-best and swarm-best rows are read in place through
/// zero-copy windows (other launches write them, this one only reads).
pub struct DpsoUpdateKernel {
    /// Particle positions (row-major).
    pub positions: Buf<u32>,
    /// Personal-best positions.
    pub pbest: Buf<u32>,
    /// Swarm-best position (one row of `n`).
    pub gbest: Buf<u32>,
    /// XORWOW states.
    pub rng: Buf<u64>,
    /// Jobs per sequence.
    pub n: usize,
    /// Live particles.
    pub ensemble: usize,
    /// Velocity probability `w`.
    pub w: f64,
    /// Cognition probability `c₁`.
    pub c1: f64,
    /// Social probability `c₂`.
    pub c2: f64,
    /// Per-particle local memory, indexed by global thread id.
    scratch: ScratchArena<UpdateScratch>,
}

impl DpsoUpdateKernel {
    /// Build the kernel for `ensemble` live particles.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        positions: Buf<u32>,
        pbest: Buf<u32>,
        gbest: Buf<u32>,
        rng: Buf<u64>,
        n: usize,
        ensemble: usize,
        w: f64,
        c1: f64,
        c2: f64,
    ) -> Self {
        // Job ids travel through u32 buffers and the u32 RNG bound below;
        // checking once here makes every `n as u32` in the hot path exact.
        assert!(u32::try_from(n).is_ok(), "sequence length {n} exceeds the u32 job-id domain");
        DpsoUpdateKernel {
            positions,
            pbest,
            gbest,
            rng,
            n,
            ensemble,
            w,
            c1,
            c2,
            scratch: ScratchArena::new(ensemble),
        }
    }
}

/// Per-thread local memory for the update.
#[derive(Default)]
pub struct UpdateScratch {
    row: Vec<u32>,
    /// The simulator's staged copy of a personal-best or swarm-best row.
    other: Vec<u32>,
    out: Vec<u32>,
    /// Seen-marks over job ids, shared by the crossovers and the fault
    /// repair; all `false` between uses.
    marks: Vec<bool>,
}

/// Repair `row` in place if it is not a permutation of `0..n` (reset to the
/// identity). Only called under fault injection, where a flipped read can
/// hand the crossover operators job ids that index out of bounds. `marks`
/// (at least `n` long) is all `false` on entry and again on return.
fn sanitize_row(row: &mut [u32], marks: &mut [bool]) {
    let n = row.len();
    let valid = row.iter().all(|&j| {
        // u32 → usize widens; a flipped id is caught by the bounds check,
        // never truncated into a valid-looking index.
        let j = j as usize;
        j < n && !std::mem::replace(&mut marks[j], true)
    });
    // Every mark set above belongs to an in-range id of `row`.
    for &j in row.iter() {
        if let Some(mark) = marks[..n].get_mut(j as usize) {
            *mark = false;
        }
    }
    if !valid {
        for (k, slot) in row.iter_mut().enumerate() {
            // k < n ≤ u32::MAX (the row was read from a u32 buffer).
            *slot = k as u32;
        }
    }
}

/// Stage the parent row `buf[start..start + n]` into `scratch.other` — the
/// simulator's path, which charges and fault-filters every read — and
/// repair it under fault injection.
fn stage_parent<C: DeviceCtx>(
    ctx: &mut C,
    buf: Buf<u32>,
    start: usize,
    n: usize,
    scratch: &mut UpdateScratch,
) {
    scratch.other.resize(n, 0);
    ctx.read_slice_into(buf, start, &mut scratch.other);
    if ctx.fault_injection_active() {
        sanitize_row(&mut scratch.other, &mut scratch.marks);
        ctx.charge_alu(2 * n as u64);
    }
}

impl Kernel for DpsoUpdateKernel {
    type Shared = ();
    type ThreadState = ();

    fn name(&self) -> &str {
        "dpso_update"
    }

    fn make_shared(&self, _block_dim: usize) {}

    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
        let gid = ctx.global_id();
        if gid >= self.ensemble {
            return;
        }
        let n = self.n;
        let mut rng = ctx.load_rng(self.rng, gid);

        self.scratch.with_slot(gid, |scratch| {
            scratch.row.resize(n, 0);
            scratch.marks.resize(n, false);
            ctx.read_slice_into(self.positions, gid * n, &mut scratch.row);
            if ctx.fault_injection_active() {
                sanitize_row(&mut scratch.row, &mut scratch.marks);
                ctx.charge_alu(2 * n as u64);
            }

            // λ = w ⊕ F₁(p): swap two random positions.
            if n >= 2 && rng.next_f64() < self.w {
                let a = rng.next_below(n as u32) as usize;
                let mut b = rng.next_below(n as u32 - 1) as usize;
                if b >= a {
                    b += 1;
                }
                scratch.row.swap(a, b);
                ctx.charge_alu(6);
            }

            // δ = c₁ ⊕ F₂(λ, pbest): one-point crossover with the personal best.
            if n >= 2 && rng.next_f64() < self.c1 {
                let start = gid * n;
                if ctx.global_window(self.pbest, start, n).is_none() {
                    stage_parent(ctx, self.pbest, start, n, scratch);
                }
                let cut = 1 + rng.next_below(n as u32 - 1) as usize;
                let UpdateScratch { row: a, other, out, marks } = scratch;
                match ctx.global_window(self.pbest, start, n) {
                    Some(b) => one_point_crossover(a, b, cut, marks, out),
                    None => one_point_crossover(a, other, cut, marks, out),
                }
                std::mem::swap(a, out);
                ctx.charge_alu(2 * n as u64);
            }

            // x = c₂ ⊕ F₃(δ, g): two-point crossover with the swarm best.
            if n >= 2 && rng.next_f64() < self.c2 {
                if ctx.global_window(self.gbest, 0, n).is_none() {
                    stage_parent(ctx, self.gbest, 0, n, scratch);
                }
                let mut lo = rng.next_below(n as u32) as usize;
                let mut hi = rng.next_below(n as u32) as usize;
                if lo > hi {
                    std::mem::swap(&mut lo, &mut hi);
                }
                let UpdateScratch { row: a, other, out, marks } = scratch;
                match ctx.global_window(self.gbest, 0, n) {
                    Some(b) => two_point_crossover(a, b, lo, hi + 1, marks, out),
                    None => two_point_crossover(a, other, lo, hi + 1, marks, out),
                }
                std::mem::swap(a, out);
                ctx.charge_alu(2 * n as u64);
            }

            ctx.write_slice(self.positions, gid * n, &scratch.row);
        });
        ctx.store_rng(self.rng, gid, &rng);
    }
}

/// Personal-best update (the DPSO analogue of the acceptance kernel):
/// `pbest ← position` wherever the new fitness improves it. Seed
/// `pbest_energies` with `i64::MAX` so the first launch records the initial
/// swarm.
pub struct PbestKernel {
    /// Particle positions.
    pub positions: Buf<u32>,
    /// Fresh fitness per particle.
    pub energies: Buf<i64>,
    /// Personal-best positions (updated).
    pub pbest: Buf<u32>,
    /// Personal-best energies (updated).
    pub pbest_energies: Buf<i64>,
    /// Jobs per sequence.
    pub n: usize,
    /// Live particles.
    pub ensemble: usize,
    /// Optional convergence-telemetry probe; `None` when telemetry is off.
    pub telemetry: Option<DpsoProbe>,
}

impl Kernel for PbestKernel {
    type Shared = ();
    type ThreadState = ();

    fn name(&self) -> &str {
        "pbest_update"
    }

    fn make_shared(&self, _block_dim: usize) {}

    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
        let gid = ctx.global_id();
        if gid >= self.ensemble {
            return;
        }
        let e = ctx.read(self.energies, gid);
        let b = ctx.read(self.pbest_energies, gid);
        let improved = e < b;
        if improved {
            ctx.copy_row(self.positions, gid * self.n, self.pbest, gid * self.n, self.n);
            ctx.write(self.pbest_energies, gid, e);
        }

        if let Some(probe) = &self.telemetry {
            probe.ring.bump_counter(ctx, gid, i64::from(improved));
            if let Some(slot) = probe.slot {
                let pb = if improved { e } else { b };
                // Diversity proxy: Hamming distance between this particle and
                // the generation-start swarm best.
                let mut dist = 0i64;
                for j in 0..self.n {
                    let mine: u32 = ctx.telemetry_read(self.positions, gid * self.n + j);
                    let swarm: u32 = ctx.telemetry_read(probe.gbest, j);
                    dist += i64::from(mine != swarm);
                }
                probe.ring.write_sample(ctx, slot, gid, [pb, e, dist]);
            }
        }
    }
}

/// Broadcast the reduction winner: one thread copies the argmin particle's
/// personal best into the swarm-best row (the second half of the paper's
/// "find swarm's best" step).
pub struct GbestCopyKernel {
    /// Packed `(value, index)` argmin result from the reduction kernel.
    pub packed: Buf<i64>,
    /// Personal-best positions.
    pub pbest: Buf<u32>,
    /// Swarm-best row (written).
    pub gbest: Buf<u32>,
    /// Jobs per sequence.
    pub n: usize,
}

impl Kernel for GbestCopyKernel {
    type Shared = ();
    type ThreadState = ();

    fn name(&self) -> &str {
        "gbest_copy"
    }

    fn make_shared(&self, _block_dim: usize) {}

    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
        if ctx.global_id() != 0 {
            return;
        }
        let key = ctx.read(self.packed, 0);
        let (_, idx) = unpack_argmin(key);
        ctx.charge_alu(2);
        // A corrupted packed key can decode to an index past the swarm; skip
        // the copy rather than read out of bounds (gbest keeps its previous
        // row, which is still a valid permutation). The range check is cheap
        // enough to keep unconditionally.
        if (idx + 1) * self.n > self.pbest.len() {
            return;
        }
        ctx.copy_row(self.pbest, idx * self.n, self.gbest, 0, self.n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::JobSequence;
    use cuda_sim::reduce::pack_argmin;
    use cuda_sim::{DeviceSpec, Gpu, LaunchConfig, XorWow};

    #[test]
    fn update_keeps_rows_as_permutations() {
        let t = 24;
        let n = 15;
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let positions = gpu.alloc::<u32>(t * n);
        let pbest = gpu.alloc::<u32>(t * n);
        let gbest = gpu.alloc::<u32>(n);
        let flat: Vec<u32> = (0..t).flat_map(|_| (0..n as u32).rev()).collect();
        gpu.h2d(positions, &flat);
        gpu.h2d(pbest, &(0..t).flat_map(|_| 0..n as u32).collect::<Vec<_>>());
        gpu.h2d(gbest, &(0..n as u32).collect::<Vec<_>>());
        let rng = gpu.alloc::<u64>(t * 3);
        let words: Vec<u64> = (0..t).flat_map(|i| XorWow::new(5, i as u64).pack()).collect();
        gpu.h2d(rng, &words);
        let k = DpsoUpdateKernel::new(positions, pbest, gbest, rng, n, t, 0.9, 0.8, 0.8);
        gpu.launch(&k, LaunchConfig::cover(t, 8), &[]).unwrap();
        let out = gpu.d2h(positions);
        for i in 0..t {
            let row = out[i * n..(i + 1) * n].to_vec();
            assert!(
                JobSequence::from_vec(row).unwrap().is_valid_permutation(),
                "particle {i} left the permutation space"
            );
        }
    }

    #[test]
    fn pbest_updates_only_improvements() {
        let n = 3;
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let positions = gpu.alloc::<u32>(2 * n);
        gpu.h2d(positions, &[2, 1, 0, 2, 0, 1]);
        let energies = gpu.alloc::<i64>(2);
        gpu.h2d(energies, &[5, 50]);
        let pbest = gpu.alloc::<u32>(2 * n);
        gpu.h2d(pbest, &[0, 1, 2, 0, 1, 2]);
        let pbest_e = gpu.alloc::<i64>(2);
        gpu.h2d(pbest_e, &[10, 10]);
        let k = PbestKernel {
            positions,
            energies,
            pbest,
            pbest_energies: pbest_e,
            n,
            ensemble: 2,
            telemetry: None,
        };
        gpu.launch(&k, LaunchConfig::linear(1, 2), &[]).unwrap();
        assert_eq!(gpu.d2h(pbest_e), vec![5, 10]);
        assert_eq!(gpu.d2h(pbest), vec![2, 1, 0, 0, 1, 2]);
    }

    #[test]
    fn probe_records_pbest_energy_and_hamming_diversity() {
        let n = 3;
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let positions = gpu.alloc::<u32>(2 * n);
        gpu.h2d(positions, &[2, 1, 0, 0, 1, 2]);
        let energies = gpu.alloc::<i64>(2);
        gpu.h2d(energies, &[5, 50]);
        let pbest = gpu.alloc::<u32>(2 * n);
        let pbest_e = gpu.alloc::<i64>(2);
        gpu.h2d(pbest_e, &[10, 10]);
        let gbest = gpu.alloc::<u32>(n);
        gpu.h2d(gbest, &[0, 1, 2]);
        let ring = cuda_sim::TelemetryRing::alloc(&mut gpu, 2, 1);
        let k = PbestKernel {
            positions,
            energies,
            pbest,
            pbest_energies: pbest_e,
            n,
            ensemble: 2,
            telemetry: Some(DpsoProbe { ring, slot: Some(0), gbest }),
        };
        gpu.launch(&k, LaunchConfig::linear(1, 2), &[]).unwrap();
        let (lanes, counters) = ring.snapshot(&gpu);
        // Particle 0 improved (5 < 10) and sits 2 swaps from gbest [0,1,2].
        assert_eq!(&lanes[..3], &[5, 5, 2]);
        // Particle 1 kept pbest 10 and matches gbest exactly.
        assert_eq!(&lanes[3..6], &[10, 50, 0]);
        assert_eq!(counters, vec![1, 0]);
    }

    #[test]
    fn gbest_copy_fetches_winning_row() {
        let n = 4;
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let pbest = gpu.alloc::<u32>(3 * n);
        gpu.h2d(pbest, &[0, 1, 2, 3, 3, 2, 1, 0, 1, 0, 3, 2]);
        let gbest = gpu.alloc::<u32>(n);
        let packed = gpu.alloc::<i64>(1);
        gpu.h2d(packed, &[pack_argmin(42, 1)]); // particle 1 won
        let k = GbestCopyKernel { packed, pbest, gbest, n };
        gpu.launch(&k, LaunchConfig::linear(1, 32), &[]).unwrap();
        assert_eq!(gpu.d2h(gbest), vec![3, 2, 1, 0]);
    }
}
