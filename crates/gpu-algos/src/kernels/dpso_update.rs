//! DPSO device kernels (paper Section VII).
//!
//! One particle per thread. The position update implements Eq. (3) of the
//! paper with the permutation operators of Pan et al. (shared with the CPU
//! implementation in `cdd-meta::dpso`): swap velocity `F₁`, one-point
//! crossover `F₂` against the personal best, two-point crossover `F₃`
//! against the swarm best.

use cuda_sim::reduce::unpack_argmin;
use cuda_sim::{Buf, DeviceCtx, Kernel, ScratchArena, TelemetryRing, XorWow};

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
/// Built once per pipeline run ([`DpsoUpdateKernel::new`]); the staged rows
/// and the crossover marks persist in one scratch slot across launches, so
/// steady-state generations allocate nothing. The particles of a launch
/// borrow the slot in turn, and each overwrites what it reads.
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
    /// Local memory: one slot, borrowed by each particle in turn.
    scratch: ScratchArena<UpdateScratch>,
}

/// One particle's drawn update: which of Eq. (3)'s three operators apply,
/// and where. No draw depends on the particle's row, so all three are
/// drawn before any is applied ([`DpsoMove::apply`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct DpsoMove {
    /// `F₁`: swap the jobs at these two distinct positions.
    pub swap: Option<(usize, usize)>,
    /// `F₂`: keep the prefix `[0, cut)`, then the personal best's other
    /// jobs in its order (`1 ≤ cut < n`).
    pub cut: Option<usize>,
    /// `F₃`: keep the segment `[lo, hi)` in place, then the swarm best's
    /// other jobs in its order around it (`lo ≤ hi ≤ n`; drawn, `lo < hi`).
    pub segment: Option<(usize, usize)>,
}

impl DpsoMove {
    /// Apply the move to `row` in place: `F₃(F₂(F₁(row), pbest), gbest)`,
    /// with each operator the move leaves out skipped. `row`, `pbest` and
    /// `gbest` are permutations of `0..n`.
    ///
    /// Each operator does only the per-job work its result uses. `F₃`
    /// keeps only `δ = F₂(…)`'s slice `[lo, hi)`, so when both apply, `F₂`
    /// runs only up to `hi`, and not at all when `hi ≤ cut` (`δ` then
    /// equals the row there). Every compaction stops once its range is
    /// full.
    pub(crate) fn apply(&self, row: &mut [u32], pbest: &[u32], gbest: &[u32], marks: &mut Marks) {
        if let Some((a, b)) = self.swap {
            row.swap(a, b);
        }
        // The positions of δ the result keeps: all of them without F₃.
        let keep = self.segment.map_or(row.len(), |(_, hi)| hi);
        if let Some(cut) = self.cut.filter(|&cut| cut < keep) {
            marks.clear(row.len());
            for &j in &row[..cut] {
                marks.insert(j);
            }
            let (_, tail) = row.split_at_mut(cut);
            fill_unmarked(pbest, marks, &mut tail[..keep - cut]);
        }
        if let Some((lo, hi)) = self.segment {
            marks.clear(row.len());
            for &j in &row[lo..hi] {
                marks.insert(j);
            }
            let (head, rest) = row.split_at_mut(lo);
            let used = fill_unmarked(gbest, marks, head);
            fill_unmarked(&gbest[used..], marks, &mut rest[hi - lo..]);
        }
    }
}

/// Seen-marks over job ids `0..n`. Each mark is stamped with the epoch of
/// the set it belongs to, so starting a new set costs no clearing pass and
/// a compaction that stops early leaves nothing to clean up.
#[derive(Default)]
pub(crate) struct Marks {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Marks {
    /// Start a new, empty set over the job ids `0..n`.
    pub(crate) fn clear(&mut self, n: usize) {
        self.stamps.resize(n, 0);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Every stamp ever written is now ambiguous: reset them all.
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark job `j`; returns whether it was unmarked.
    #[inline]
    pub(crate) fn insert(&mut self, j: u32) -> bool {
        std::mem::replace(&mut self.stamps[j as usize], self.epoch) != self.epoch
    }

    /// Whether job `j` is marked.
    #[inline]
    fn contains(&self, j: u32) -> bool {
        self.stamps[j as usize] == self.epoch
    }
}

/// Fill `dst` with `src`'s unmarked jobs, in order, and stop once it is
/// full; returns how many jobs of `src` were read. The store does not
/// branch on the mark: each job read is stored at the cursor, which
/// advances only past unmarked ones, so a marked job is overwritten by the
/// next one and nothing is written outside `dst`.
#[inline]
fn fill_unmarked(src: &[u32], marks: &Marks, dst: &mut [u32]) -> usize {
    let mut kept = 0;
    for (read, &j) in src.iter().enumerate() {
        if kept == dst.len() {
            return read;
        }
        dst[kept] = j;
        kept += usize::from(!marks.contains(j));
    }
    src.len()
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
            scratch: ScratchArena::new(1),
        }
    }

    /// A particle's update, drawn from `rng`: `F₁` with probability `w`,
    /// `F₂` with `c₁`, `F₃` with `c₂`, each with its positions.
    pub(crate) fn draw(&self, rng: &mut XorWow) -> DpsoMove {
        let n = self.n;
        let mut update = DpsoMove::default();
        if n < 2 {
            return update;
        }
        // `n as u32` is exact: `new` rejects n > u32::MAX.
        if rng.next_f64() < self.w {
            let a = rng.next_below(n as u32) as usize;
            let mut b = rng.next_below(n as u32 - 1) as usize;
            if b >= a {
                b += 1;
            }
            update.swap = Some((a, b));
        }
        if rng.next_f64() < self.c1 {
            update.cut = Some(1 + rng.next_below(n as u32 - 1) as usize);
        }
        if rng.next_f64() < self.c2 {
            let mut lo = rng.next_below(n as u32) as usize;
            let mut hi = rng.next_below(n as u32) as usize;
            if lo > hi {
                std::mem::swap(&mut lo, &mut hi);
            }
            update.segment = Some((lo, hi + 1));
        }
        update
    }

    /// Particle `gid`'s position update, drawing from `rng`: stage its row
    /// of `positions` and the parent rows the drawn operators read, apply
    /// the move to the staged row and store it back. The simulator charges
    /// and fault-filters every staged read, in the order the operators
    /// read them.
    fn update_row<C: DeviceCtx>(
        &self,
        ctx: &mut C,
        gid: usize,
        rng: &mut XorWow,
        scratch: &mut UpdateScratch,
    ) {
        let n = self.n;
        let update = self.draw(rng);
        let UpdateScratch { row, pbest, gbest, marks } = scratch;
        stage(ctx, self.positions, gid * n, n, row, marks);
        if update.swap.is_some() {
            ctx.charge_alu(6);
        }
        if update.cut.is_some() {
            stage(ctx, self.pbest, gid * n, n, pbest, marks);
            ctx.charge_alu(2 * n as u64);
        }
        if update.segment.is_some() {
            stage(ctx, self.gbest, 0, n, gbest, marks);
            ctx.charge_alu(2 * n as u64);
        }
        update.apply(row, pbest, gbest, marks);
        ctx.write_slice(self.positions, gid * n, row);
    }
}

/// A particle's local memory for the update: the staged copies of its row
/// and of the parent rows, and the crossover marks.
#[derive(Default)]
struct UpdateScratch {
    row: Vec<u32>,
    pbest: Vec<u32>,
    gbest: Vec<u32>,
    marks: Marks,
}

/// Stage the row `buf[start..start + n]` into `dst` through the device
/// context — the simulator charges and fault-filters every read — and, under
/// fault injection, repair it: a flipped read can hand the operators job
/// ids that index out of bounds, so a row that is not a permutation of
/// `0..n` becomes the identity.
fn stage<C: DeviceCtx>(
    ctx: &mut C,
    buf: Buf<u32>,
    start: usize,
    n: usize,
    dst: &mut Vec<u32>,
    marks: &mut Marks,
) {
    dst.resize(n, 0);
    ctx.read_slice_into(buf, start, dst);
    if ctx.fault_injection_active() {
        marks.clear(n);
        // u32 → usize widens; a flipped id is caught by the bounds check,
        // never truncated into a valid-looking index.
        if !dst.iter().all(|&j| (j as usize) < n && marks.insert(j)) {
            for (k, slot) in dst.iter_mut().enumerate() {
                // k < n ≤ u32::MAX (the row was read from a u32 buffer).
                *slot = k as u32;
            }
        }
        ctx.charge_alu(2 * n as u64);
    }
}

impl Kernel for DpsoUpdateKernel {
    fn name(&self) -> &str {
        "dpso_update"
    }

    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
        let gid = ctx.global_id();
        if gid >= self.ensemble {
            return;
        }
        let mut rng = ctx.load_rng(self.rng, gid);
        self.scratch.with_slot(0, |scratch| self.update_row(ctx, gid, &mut rng, scratch));
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

impl PbestKernel {
    /// Particle `gid`'s personal-best update for its fresh fitness `e`:
    /// its row of `positions` becomes its personal best if `e` improves on
    /// it. Returns whether it did and the personal-best energy afterwards.
    pub(crate) fn improve<C: DeviceCtx>(&self, ctx: &mut C, gid: usize, e: i64) -> (bool, i64) {
        let b = ctx.read(self.pbest_energies, gid);
        let improved = e < b;
        if improved {
            ctx.copy_row(self.positions, gid * self.n, self.pbest, gid * self.n, self.n);
            ctx.write(self.pbest_energies, gid, e);
        }
        (improved, if improved { e } else { b })
    }
}

impl Kernel for PbestKernel {
    fn name(&self) -> &str {
        "pbest_update"
    }

    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
        let gid = ctx.global_id();
        if gid >= self.ensemble {
            return;
        }
        let e = ctx.read(self.energies, gid);
        let (improved, pb) = self.improve(ctx, gid, e);

        if let Some(probe) = &self.telemetry {
            probe.ring.bump_counter(ctx, gid, i64::from(improved));
            if let Some(slot) = probe.slot {
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
    fn name(&self) -> &str {
        "gbest_copy"
    }

    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
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
    use cdd_meta::dpso::{one_point_crossover, two_point_crossover};
    use cuda_sim::reduce::pack_argmin;
    use cuda_sim::{DeviceSpec, Gpu, LaunchConfig, XorWow};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The one-pass move must equal Eq. (3) composed from cdd-meta's
    /// operators, `two_point_crossover(one_point_crossover(swap(row),
    /// pbest, cut), gbest, lo, hi)` with each operator applied only if
    /// drawn, for every subset of the three, with one set of marks reused
    /// across calls (starting just short of its epoch wrap). The tallies
    /// make sure the cases the lazy `F₂` and in-place `F₃` lean on occur.
    #[test]
    fn move_matches_the_composed_crossovers() {
        let mut rng = StdRng::seed_from_u64(0xD950);
        let mut marks = Marks { stamps: Vec::new(), epoch: u32::MAX - 50 };
        let (mut oracle_marks, mut out) = (Vec::new(), Vec::new());
        let mut hits = [0usize; 8];
        for case in 0..4000 {
            let n = if case % 9 == 0 { 2 } else { rng.gen_range(2..=24) };
            let mut perm = || JobSequence::random(n, &mut rng).as_slice().to_vec();
            let (row, pbest, gbest) = (perm(), perm(), perm());
            let ops = case % 8;
            let swap = (ops & 1 != 0).then(|| {
                let a = rng.gen_range(0..n);
                (a, (a + rng.gen_range(1..n)) % n)
            });
            let cut = (ops & 2 != 0).then(|| rng.gen_range(1..n));
            let segment = (ops & 4 != 0).then(|| {
                let (a, b) = (rng.gen_range(0..=n), rng.gen_range(0..=n));
                (a.min(b), a.max(b))
            });
            let update = DpsoMove { swap, cut, segment };

            let mut want = row.clone();
            oracle_marks.resize(n, false);
            if let Some((a, b)) = swap {
                want.swap(a, b);
            }
            if let Some(cut) = cut {
                one_point_crossover(&want, &pbest, cut, &mut oracle_marks, &mut out);
                want.clone_from(&out);
            }
            if let Some((lo, hi)) = segment {
                two_point_crossover(&want, &gbest, lo, hi, &mut oracle_marks, &mut out);
                want.clone_from(&out);
            }
            let mut got = row.clone();
            update.apply(&mut got, &pbest, &gbest, &mut marks);
            assert_eq!(got, want, "case {case}: n = {n}, {update:?}");

            if let (Some(cut), Some((lo, hi))) = (cut, segment) {
                hits[0] += usize::from(hi <= cut);
                hits[1] += usize::from(lo >= cut);
            }
            if let Some((lo, hi)) = segment {
                hits[2] += usize::from(lo == hi);
                hits[3] += usize::from(lo == 0);
                hits[4] += usize::from(hi == n);
            }
            if let Some(cut) = cut {
                hits[5] += usize::from(cut == 1);
                hits[6] += usize::from(cut == n - 1);
            }
            hits[7] += usize::from(n == 2);
        }
        assert!(marks.epoch < u32::MAX - 50, "the marks' epoch wrapped during the run");
        let names = [
            "hi <= cut",
            "lo >= cut",
            "lo = hi",
            "lo = 0",
            "hi = n",
            "cut = 1",
            "cut = n - 1",
            "n = 2",
        ];
        for (what, count) in names.into_iter().zip(hits) {
            assert!(count >= 10, "only {count} cases cover {what}");
        }
    }

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
        gpu.launch(&k, LaunchConfig::cover(t, 8)).unwrap();
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
        gpu.launch(&k, LaunchConfig::linear(1, 2)).unwrap();
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
        gpu.launch(&k, LaunchConfig::linear(1, 2)).unwrap();
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
        gpu.launch(&k, LaunchConfig::linear(1, 32)).unwrap();
        assert_eq!(gpu.d2h(gbest), vec![3, 2, 1, 0]);
    }
}
