//! The perturbation kernel (paper Section VI-B).
//!
//! Each thread derives a candidate sequence from its parent: `Pert` jobs at
//! randomly selected positions are reshuffled with the Fisher–Yates
//! algorithm while "retaining the position of other jobs in the sequence".
//! Randomness comes from the thread's device-resident XORWOW stream (the
//! cuRAND analogue).

use cuda_sim::{Buf, DeviceCtx, Kernel, ScratchArena, XorWow};

/// Derives `dst[row] = perturb(src[row])` per thread.
///
/// Built once per pipeline run ([`PerturbKernel::new`]); the working
/// vectors persist in one scratch slot across launches, so steady-state
/// generations allocate nothing. The threads of a launch borrow the slot in
/// turn, and each overwrites it before reading it.
pub struct PerturbKernel {
    /// Parent sequences (row-major, `n` per thread).
    pub src: Buf<u32>,
    /// Candidate sequences (written).
    pub dst: Buf<u32>,
    /// XORWOW states (3 words per thread).
    pub rng: Buf<u64>,
    /// Jobs per sequence.
    pub n: usize,
    /// Live threads.
    pub ensemble: usize,
    /// Perturbation size `Pert` (paper: 4).
    pub pert: usize,
    /// Local memory: one slot, borrowed by each thread in turn.
    scratch: ScratchArena<PerturbScratch>,
}

/// A thread's local memory.
#[derive(Default)]
struct PerturbScratch {
    /// The thread's row, perturbed in place before the kernel stores it.
    row: Vec<u32>,
    swaps: Swaps,
}

/// One drawn perturbation: the transpositions that shuffle the selected
/// positions, in the order Fisher–Yates applies them. No draw depends on
/// the row, so a move can be drawn first and applied to the row wherever
/// it lies.
#[derive(Default)]
pub(crate) struct Swaps {
    positions: Vec<u32>,
    pairs: Vec<(u32, u32)>,
}

impl Swaps {
    /// Apply the move to `row`.
    pub(crate) fn apply(&self, row: &mut [u32]) {
        for &(a, b) in &self.pairs {
            row.swap(a as usize, b as usize);
        }
    }

    /// Take the move back: the same transpositions in reverse order.
    pub(crate) fn undo(&self, row: &mut [u32]) {
        for &(a, b) in self.pairs.iter().rev() {
            row.swap(a as usize, b as usize);
        }
    }
}

impl PerturbKernel {
    /// Build the kernel for `ensemble` live threads.
    pub fn new(
        src: Buf<u32>,
        dst: Buf<u32>,
        rng: Buf<u64>,
        n: usize,
        ensemble: usize,
        pert: usize,
    ) -> Self {
        // Job ids travel through u32 buffers and the u32 RNG bound below;
        // checking once here makes every `n as u32` in the hot path exact.
        assert!(u32::try_from(n).is_ok(), "sequence length {n} exceeds the u32 job-id domain");
        PerturbKernel {
            src,
            dst,
            rng,
            n,
            ensemble,
            pert,
            scratch: ScratchArena::new(1),
        }
    }

    /// A thread's perturbation, drawn from `rng` into `swaps`: `pert`
    /// distinct positions, then the Fisher–Yates shuffle of the jobs at
    /// them. Returns how many positions it drew, rejected repeats included.
    /// The kernel applies the move to the parent row it stages; the native
    /// pass applies it to the chain's row in place.
    pub(crate) fn draw(&self, rng: &mut XorWow, swaps: &mut Swaps) -> u64 {
        let n = self.n;
        swaps.pairs.clear();
        let pert = self.pert.min(n);
        if pert < 2 {
            return 0;
        }
        // Select `pert` distinct positions (rejection sampling — cheap for
        // the paper's Pert = 4, exact for any pert ≤ n).
        swaps.positions.clear();
        let mut tries = 0;
        while swaps.positions.len() < pert {
            // `n as u32` is exact: `new` rejects n > u32::MAX.
            let c = rng.next_below(n as u32);
            if !swaps.positions.contains(&c) {
                swaps.positions.push(c);
            }
            tries += 1;
        }
        // Fisher–Yates over the jobs at the selected positions.
        for i in (1..pert).rev() {
            let j = rng.next_below(i as u32 + 1) as usize;
            swaps.pairs.push((swaps.positions[i], swaps.positions[j]));
        }
        tries
    }
}

impl Kernel for PerturbKernel {
    fn name(&self) -> &str {
        "perturbation"
    }

    fn phase<C: DeviceCtx>(&self, _phase: usize, ctx: &mut C) {
        let gid = ctx.global_id();
        if gid >= self.ensemble {
            return;
        }
        let n = self.n;
        let mut rng = ctx.load_rng(self.rng, gid);
        self.scratch.with_slot(0, |PerturbScratch { row, swaps }| {
            row.resize(n, 0);
            ctx.read_slice_into(self.src, gid * n, row);
            let tries = self.draw(&mut rng, swaps);
            // Two ALU operations per position drawn, four per Fisher–Yates
            // step.
            let steps = self.pert.min(n).saturating_sub(1) as u64;
            ctx.charge_alu(2 * tries + 4 * steps);
            swaps.apply(row);
            ctx.write_slice(self.dst, gid * n, row);
        });
        ctx.store_rng(self.rng, gid, &rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdd_core::JobSequence;
    use cuda_sim::{DeviceSpec, Gpu, LaunchConfig, XorWow};

    fn setup(threads: usize, n: usize) -> (Gpu, Buf<u32>, Buf<u32>, Buf<u64>) {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let src = gpu.alloc::<u32>(threads * n);
        let flat: Vec<u32> = (0..threads).flat_map(|_| 0..n as u32).collect();
        gpu.h2d(src, &flat);
        let dst = gpu.alloc::<u32>(threads * n);
        let rng = gpu.alloc::<u64>(threads * 3);
        let words: Vec<u64> =
            (0..threads).flat_map(|t| XorWow::new(7, t as u64).pack()).collect();
        gpu.h2d(rng, &words);
        (gpu, src, dst, rng)
    }

    #[test]
    fn candidates_are_permutations_with_bounded_displacement() {
        let (mut gpu, src, dst, rng) = setup(32, 20);
        let kernel = PerturbKernel::new(src, dst, rng, 20, 32, 4);
        gpu.launch(&kernel, LaunchConfig::linear(1, 32)).unwrap();
        let out = gpu.d2h(dst);
        for t in 0..32 {
            let row: Vec<u32> = out[t * 20..(t + 1) * 20].to_vec();
            let seq = JobSequence::from_vec(row.clone()).unwrap();
            assert!(seq.is_valid_permutation());
            let moved = row.iter().enumerate().filter(|(i, &j)| *i != j as usize).count();
            assert!(moved <= 4, "thread {t} moved {moved} positions");
        }
    }

    #[test]
    fn parent_rows_are_untouched() {
        let (mut gpu, src, dst, rng) = setup(8, 10);
        let before = gpu.peek(src);
        let kernel = PerturbKernel::new(src, dst, rng, 10, 8, 4);
        gpu.launch(&kernel, LaunchConfig::linear(1, 8)).unwrap();
        assert_eq!(gpu.peek(src), before);
    }

    #[test]
    fn threads_perturb_differently() {
        let (mut gpu, src, dst, rng) = setup(16, 30);
        let kernel = PerturbKernel::new(src, dst, rng, 30, 16, 4);
        gpu.launch(&kernel, LaunchConfig::linear(1, 16)).unwrap();
        let out = gpu.d2h(dst);
        let rows: std::collections::HashSet<Vec<u32>> =
            (0..16).map(|t| out[t * 30..(t + 1) * 30].to_vec()).collect();
        // Distinct XORWOW streams → overwhelmingly distinct candidates.
        assert!(rows.len() >= 12, "only {} distinct candidates", rows.len());
    }

    #[test]
    fn successive_launches_advance_the_stream() {
        let (mut gpu, src, dst, rng) = setup(4, 12);
        let kernel = PerturbKernel::new(src, dst, rng, 12, 4, 4);
        gpu.launch(&kernel, LaunchConfig::linear(1, 4)).unwrap();
        let first = gpu.d2h(dst);
        gpu.launch(&kernel, LaunchConfig::linear(1, 4)).unwrap();
        let second = gpu.d2h(dst);
        assert_ne!(first, second, "RNG state failed to persist across launches");
    }

    /// Taking a move back restores the row, whatever the swaps.
    #[test]
    fn undo_takes_a_move_back() {
        let swaps = Swaps { positions: Vec::new(), pairs: vec![(0, 3), (3, 1), (1, 1), (2, 0)] };
        let mut row = vec![4, 0, 3, 1, 2];
        swaps.apply(&mut row);
        assert_eq!(row, vec![3, 4, 1, 0, 2]);
        swaps.undo(&mut row);
        assert_eq!(row, vec![4, 0, 3, 1, 2]);
    }

    #[test]
    fn tiny_sequences_pass_through() {
        let (mut gpu, src, dst, rng) = setup(2, 1);
        let kernel = PerturbKernel::new(src, dst, rng, 1, 2, 4);
        gpu.launch(&kernel, LaunchConfig::linear(1, 2)).unwrap();
        assert_eq!(gpu.d2h(dst), vec![0, 0]);
    }
}
