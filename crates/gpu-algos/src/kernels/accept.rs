//! The acceptance kernel (paper Section VI-C): the standard metropolis
//! criterion at the host-advanced temperature, plus per-thread personal-best
//! maintenance (so the final reduction can return the best-ever solution,
//! not merely the best *current* state).

use crate::kernels::fitness::CORRUPT_ENERGY;
use cdd_meta::sa::metropolis_accept;
use cuda_sim::{Buf, DeviceCtx, Kernel, TelemetryRing, XorWow};

/// Telemetry probe handed to the acceptance kernel on sampled runs. Probe
/// access goes through the simulator's instrumentation port, so carrying one
/// changes no result, cost, or fault behaviour (see `cuda_sim::telemetry`).
#[derive(Debug, Clone, Copy)]
pub struct SaProbe {
    /// Destination ring.
    pub ring: TelemetryRing,
    /// Ring slot for this generation; `None` still counts accepted moves
    /// but records no sample.
    pub slot: Option<usize>,
}

/// Applies the metropolis rule per thread and tracks personal bests.
pub struct AcceptKernel {
    /// Current sequences (updated in place on acceptance).
    pub current: Buf<u32>,
    /// Candidate sequences from the perturbation kernel.
    pub candidate: Buf<u32>,
    /// Current energies.
    pub energies: Buf<i64>,
    /// Candidate energies from the fitness kernel.
    pub cand_energies: Buf<i64>,
    /// Personal-best sequences.
    pub best_rows: Buf<u32>,
    /// Personal-best energies (seed with `i64::MAX` before the first
    /// generation; the first pass then records the initial states).
    pub best_energies: Buf<i64>,
    /// XORWOW states.
    pub rng: Buf<u64>,
    /// Jobs per sequence.
    pub n: usize,
    /// Live threads.
    pub ensemble: usize,
    /// Current temperature (cooled on the host between generations, as the
    /// exponential schedule of Algorithm 1 prescribes).
    pub temperature: f64,
    /// Optional per-segment temperatures: with `Some((segment, temps))`,
    /// thread `gid` applies `temps[gid / segment]` instead of
    /// `temperature`. Every in-tree pipeline passes `None`, which applies
    /// `temperature` to all threads. The field stays only because the
    /// end-to-end benchmark's launch replay (`benchmark/src/replay.rs`)
    /// builds this kernel with a struct literal that names it; it goes with
    /// the next change to that benchmark.
    pub segment_temps: Option<(usize, Vec<f64>)>,
    /// Optional convergence-telemetry probe; `None` when telemetry is off.
    pub telemetry: Option<SaProbe>,
    /// Optional per-thread sticky "row changed" flags: set to 1 when the
    /// move is accepted and never cleared here. Every in-tree pipeline
    /// passes `None`, which writes nothing. The field stays only because
    /// the end-to-end benchmark's launch replay (`benchmark/src/replay.rs`)
    /// builds this kernel with a struct literal that names it; it goes with
    /// the next change to that benchmark.
    pub flags: Option<Buf<u32>>,
}

/// Where a thread's candidate row is: in device memory, where the
/// perturbation kernel stores it, or already in the thread's row of
/// `current`, where the fused native generation moves it in place.
#[derive(Clone, Copy)]
pub(crate) enum Candidate {
    /// The thread's row of this buffer.
    Device(Buf<u32>),
    /// The thread's row of `current` itself. The caller takes the move
    /// back if it is rejected.
    InPlace,
}

/// What a thread's acceptance fixes before its row moves: the metropolis
/// draw and the personal-best energy after capturing the pre-move state.
#[derive(Clone, Copy)]
pub(crate) struct PreMove {
    u: f64,
    best: i64,
}

impl AcceptKernel {
    /// Thread `gid`'s acceptance, up to the move: draw the metropolis
    /// uniform from `rng` and capture the pre-move state at `energy` as
    /// the personal best if it improves on it (on the first generation
    /// this records the initial sequence; later it is usually a no-op
    /// because the best already reflects this state). It must run while
    /// the thread's row of `current` still holds that state.
    pub(crate) fn before_move<C: DeviceCtx>(
        &self,
        ctx: &mut C,
        gid: usize,
        energy: i64,
        rng: &mut XorWow,
    ) -> PreMove {
        let n = self.n;
        let u = rng.next_f64();
        ctx.charge_special(1); // exp() in the metropolis rule
        ctx.charge_alu(4);
        let mut best = ctx.read(self.best_energies, gid);
        if energy < best {
            ctx.copy_row(self.current, gid * n, self.best_rows, gid * n, n);
            ctx.write(self.best_energies, gid, energy);
            best = energy;
        }
        PreMove { u, best }
    }

    /// The rest of thread `gid`'s acceptance: the metropolis rule from
    /// `energy` to the candidate's `energy_new` at `temperature`, with the
    /// uniform `pre` drew. An accepted candidate becomes the thread's row
    /// of `current` and may become its personal best. Returns whether the
    /// move was accepted and the thread's personal-best energy afterwards.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn settle<C: DeviceCtx>(
        &self,
        ctx: &mut C,
        gid: usize,
        pre: PreMove,
        candidate: Candidate,
        energy: i64,
        energy_new: i64,
        temperature: f64,
    ) -> (bool, i64) {
        let n = self.n;
        let mut best = pre.best;
        let accepted = metropolis_accept(energy, energy_new, temperature, pre.u);
        if accepted {
            if let Candidate::Device(rows) = candidate {
                ctx.copy_row(rows, gid * n, self.current, gid * n, n);
            }
            ctx.write(self.energies, gid, energy_new);
            // The newly accepted state may improve the best.
            if energy_new < best {
                ctx.copy_row(self.current, gid * n, self.best_rows, gid * n, n);
                ctx.write(self.best_energies, gid, energy_new);
                best = energy_new;
            }
        }
        (accepted, best)
    }
}

impl Kernel for AcceptKernel {
    fn name(&self) -> &str {
        "acceptance"
    }

    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
        let gid = ctx.global_id();
        if gid >= self.ensemble {
            return;
        }
        let mut rng = ctx.load_rng(self.rng, gid);

        let mut energy = ctx.read(self.energies, gid);
        let mut energy_new = ctx.read(self.cand_energies, gid);
        if ctx.fault_injection_active() {
            // A flipped energy read can reach ±2^63; clamping bounds the
            // metropolis difference (and any corrupted value loses to every
            // genuine objective anyway).
            energy = energy.clamp(0, CORRUPT_ENERGY);
            energy_new = energy_new.clamp(0, CORRUPT_ENERGY);
        }
        let temperature = match &self.segment_temps {
            Some((segment, temps)) => {
                ctx.charge_alu(1); // the segment-index division
                temps[gid / segment]
            }
            None => self.temperature,
        };
        let pre = self.before_move(ctx, gid, energy, &mut rng);
        let candidate = Candidate::Device(self.candidate);
        let (accepted, best) =
            self.settle(ctx, gid, pre, candidate, energy, energy_new, temperature);

        if let Some(flags) = self.flags {
            // Sticky: acceptance marks the row changed; nothing here
            // clears the flag.
            if accepted {
                ctx.write(flags, gid, 1);
            }
        }

        if let Some(probe) = &self.telemetry {
            let count = probe.ring.bump_counter(ctx, gid, i64::from(accepted));
            if let Some(slot) = probe.slot {
                let settled = if accepted { energy_new } else { energy };
                probe.ring.write_sample(ctx, slot, gid, [best, settled, count]);
            }
        }

        ctx.store_rng(self.rng, gid, &rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_sim::{DeviceSpec, Gpu, LaunchConfig, XorWow};

    struct Fixture {
        gpu: Gpu,
        k: AcceptKernel,
    }

    fn fixture(energies: &[i64], cand_energies: &[i64], temperature: f64) -> Fixture {
        let t = energies.len();
        let n = 4usize;
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let current = gpu.alloc::<u32>(t * n);
        gpu.h2d(current, &(0..t).flat_map(|_| [0u32, 1, 2, 3]).collect::<Vec<_>>());
        let candidate = gpu.alloc::<u32>(t * n);
        gpu.h2d(candidate, &(0..t).flat_map(|_| [3u32, 2, 1, 0]).collect::<Vec<_>>());
        let e = gpu.alloc::<i64>(t);
        gpu.h2d(e, energies);
        let ce = gpu.alloc::<i64>(t);
        gpu.h2d(ce, cand_energies);
        let best_rows = gpu.alloc::<u32>(t * n);
        let best_e = gpu.alloc::<i64>(t);
        gpu.h2d(best_e, &vec![i64::MAX; t]);
        let rng = gpu.alloc::<u64>(t * 3);
        let words: Vec<u64> = (0..t).flat_map(|i| XorWow::new(3, i as u64).pack()).collect();
        gpu.h2d(rng, &words);
        let k = AcceptKernel {
            current,
            candidate,
            energies: e,
            cand_energies: ce,
            best_rows,
            best_energies: best_e,
            rng,
            n,
            ensemble: t,
            temperature,
            segment_temps: None,
            telemetry: None,
            flags: None,
        };
        Fixture { gpu, k }
    }

    #[test]
    fn improvements_always_accepted() {
        let mut f = fixture(&[100, 100], &[50, 99], 0.001);
        f.gpu.launch(&f.k, LaunchConfig::linear(1, 2)).unwrap();
        assert_eq!(f.gpu.d2h(f.k.energies), vec![50, 99]);
        // Current rows replaced by the candidate.
        assert_eq!(&f.gpu.d2h(f.k.current)[..4], &[3, 2, 1, 0]);
        // Personal bests recorded.
        assert_eq!(f.gpu.d2h(f.k.best_energies), vec![50, 99]);
        assert_eq!(&f.gpu.d2h(f.k.best_rows)[..4], &[3, 2, 1, 0]);
    }

    #[test]
    fn cold_chain_rejects_uphill() {
        let mut f = fixture(&[10], &[1_000_000], 1e-9);
        f.gpu.launch(&f.k, LaunchConfig::linear(1, 1)).unwrap();
        assert_eq!(f.gpu.d2h(f.k.energies), vec![10]);
        assert_eq!(&f.gpu.d2h(f.k.current)[..4], &[0, 1, 2, 3]);
        // Personal best still captures the (initial) current state.
        assert_eq!(f.gpu.d2h(f.k.best_energies), vec![10]);
        assert_eq!(&f.gpu.d2h(f.k.best_rows)[..4], &[0, 1, 2, 3]);
    }

    #[test]
    fn hot_chain_accepts_uphill_often() {
        // With T ≫ ΔE, exp(−ΔE/T) ≈ 1 ≥ u for essentially every draw.
        let t = 64;
        let mut f = fixture(&vec![10; t], &vec![11; t], 1e12);
        f.gpu.launch(&f.k, LaunchConfig::linear(2, 32)).unwrap();
        let accepted = f.gpu.d2h(f.k.energies).iter().filter(|&&e| e == 11).count();
        assert!(accepted >= 60, "only {accepted}/64 uphill moves accepted at huge T");
    }

    #[test]
    fn probe_records_best_current_and_accept_count() {
        let mut f = fixture(&[100, 10], &[50, 1_000_000], 1e-9);
        let ring = cuda_sim::TelemetryRing::alloc(&mut f.gpu, 2, 1);
        f.k.telemetry = Some(SaProbe { ring, slot: Some(0) });
        f.gpu.launch(&f.k, LaunchConfig::linear(1, 2)).unwrap();
        let (lanes, counters) = ring.snapshot(&f.gpu);
        // Chain 0 accepts the downhill move: best = settled = 50, 1 accept.
        assert_eq!(&lanes[..3], &[50, 50, 1]);
        // Chain 1 rejects uphill at cold T: best = settled = 10, 0 accepts.
        assert_eq!(&lanes[3..6], &[10, 10, 0]);
        assert_eq!(counters, vec![1, 0]);
    }

    #[test]
    fn personal_best_never_worsens() {
        let mut f = fixture(&[5], &[8], 1e12); // uphill accepted at huge T
        f.gpu.launch(&f.k, LaunchConfig::linear(1, 1)).unwrap();
        // Energy moved to 8, but best stays 5.
        assert_eq!(f.gpu.d2h(f.k.energies), vec![8]);
        assert_eq!(f.gpu.d2h(f.k.best_energies), vec![5]);
        assert_eq!(&f.gpu.d2h(f.k.best_rows)[..4], &[0, 1, 2, 3]);
    }
}
