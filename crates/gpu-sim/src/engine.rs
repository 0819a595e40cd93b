//! Kernel execution engine: launches, barriers, memory access, data-race
//! detection, cost aggregation.
//!
//! A launch is a kernel value and a launch configuration. The kernel holds
//! its buffers as typed [`Buf<T>`] fields and its block and thread state in
//! [`ScratchArena`](crate::ScratchArena)s, so running a block is a plain
//! loop: for each phase, every thread of the block in index order.
//!
//! The simulator runs the blocks of a launch serially, in block-index
//! order, on the calling thread, as the native backend does. Each thread's
//! context borrows the device's memory pool for one phase call, so every
//! access, atomics included, lands in place and in that serial order on
//! both backends. Two mechanisms keep the simulator's own outputs
//! independent of that order (DESIGN.md §11):
//!
//! * fault decisions are pre-drawn per launch and derived per simulated
//!   thread (`(salt, global id)`), so execution order cannot perturb them;
//! * the modeled clock is computed from per-block cost counters that are
//!   merged in block-index order.

use crate::cost::{model_kernel_time, CostCounter, KernelTiming};
use crate::device::DeviceSpec;
use crate::fault::{FaultPlan, FaultState, FaultStats, ReadFaultCfg, ReadFaultStream};
use crate::grid::LaunchConfig;
use crate::memory::{Buf, ConstBuf, DeviceValue, MemoryPool};
use crate::profiler::{Profiler, TimelineEvent, TransferDir};
use crate::rng::XorWow;
use std::collections::HashMap;
use std::fmt;

/// Why a launch or allocation was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// The launch configuration violates a device limit.
    InvalidConfig(String),
    /// Two threads made conflicting, unsynchronized accesses to the same
    /// global-memory location (only reported when
    /// [`Gpu::set_race_detection`] is on).
    DataRace(String),
    /// Constant memory is exhausted.
    ConstantMemoryExceeded {
        /// Bytes requested by this allocation.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
    /// The launch failed before any thread ran (injected by an installed
    /// [`FaultPlan`]). Device memory is untouched; retrying is safe.
    TransientFault(String),
    /// The kernel exceeded the watchdog budget and was killed. Its writes
    /// up to the kill are in an unspecified state: recovery must treat the
    /// launch as failed and never trust its outputs without re-running.
    KernelTimeout {
        /// Kernel name.
        kernel: String,
        /// Modeled seconds the hung launch would have taken.
        modeled_seconds: f64,
        /// Watchdog budget it exceeded (`watchdog_factor ×` the clean
        /// modeled time).
        budget_seconds: f64,
    },
    /// The device died wholesale (injected worker crash,
    /// [`FaultPlan::worker_crash_rate`]): this launch and every subsequent
    /// one on this device fail until a fresh device is established.
    /// Deliberately **not** transient — retrying on the *same* device
    /// cannot succeed; recovery must escalate to whoever owns the device
    /// lifecycle (the service's supervisor, DESIGN.md §12).
    DeviceLost {
        /// Kernel whose launch first observed the dead device.
        kernel: String,
    },
}

impl LaunchError {
    /// Whether retrying the same launch can succeed. Transient faults and
    /// watchdog kills are retryable; configuration errors, data races and
    /// allocation failures are deterministic bugs and are not.
    pub fn is_transient(&self) -> bool {
        matches!(self, LaunchError::TransientFault(_) | LaunchError::KernelTimeout { .. })
    }
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::InvalidConfig(msg) => write!(f, "invalid launch config: {msg}"),
            LaunchError::DataRace(msg) => write!(f, "data race: {msg}"),
            LaunchError::ConstantMemoryExceeded { requested, available } => {
                write!(f, "constant memory exceeded: requested {requested} B, {available} B free")
            }
            LaunchError::TransientFault(msg) => write!(f, "transient launch failure: {msg}"),
            LaunchError::KernelTimeout { kernel, modeled_seconds, budget_seconds } => write!(
                f,
                "kernel `{kernel}` killed by watchdog: modeled {modeled_seconds:.6} s \
                 exceeds budget {budget_seconds:.6} s"
            ),
            LaunchError::DeviceLost { kernel } => {
                write!(f, "device lost: worker crashed before kernel `{kernel}` (injected)")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// A simulated CUDA kernel.
///
/// A kernel value carries everything its launch needs. Its device buffers
/// are typed [`Buf<T>`] struct fields, the analogue of a CUDA kernel's
/// launch parameters. Data a block's threads share across the phase
/// barrier (shared memory) and working vectors a thread fills and uses
/// within one phase call (registers, local memory) live in
/// [`ScratchArena`](crate::ScratchArena)s the kernel sizes at
/// construction: one slot per block, and one working slot that the
/// threads, run one at a time, borrow in turn (a thread that must keep
/// data from one phase to the next needs a slot of its own). Slots outlive
/// threads and launches, so a kernel overwrites what it stages before it
/// reads it, as the fitness kernel does with its staged penalty rates.
///
/// `__syncthreads()` barriers are expressed structurally: the kernel body is
/// split into [`num_phases`](Kernel::num_phases) phases, and the engine
/// guarantees that every thread of a block completes phase `p` before any
/// thread enters `p + 1` — exactly the barrier semantics the paper relies on
/// in its fitness kernel ("this synchronization ensures that all the write
/// operations on the shared memory are finished before reading them").
pub trait Kernel {
    /// Kernel name (profiler label).
    fn name(&self) -> &str;

    /// Shared-memory footprint in bytes (validated against the device
    /// limit). Kernels report their true footprint; the default of 0 suits
    /// kernels without shared memory.
    fn shared_mem_bytes(&self, _block_dim: usize) -> usize {
        0
    }

    /// Number of barrier-delimited phases (≥ 1).
    fn num_phases(&self) -> usize {
        1
    }

    /// Execute one phase for one thread.
    ///
    /// Generic over the execution context so the same kernel body runs on
    /// the simulator ([`ThreadCtx`], modeled time / faults / races) and on
    /// the native host backend ([`crate::backend::NativeCtx`], raw speed) —
    /// the backend byte-identity contract of DESIGN.md §16 depends on both
    /// paths executing this exact code. (`Self: Sized` keeps the rest of the
    /// trait object-safe: a `&dyn Kernel` names a launch's geometry needs
    /// where no thread runs, as in
    /// [`NativeGpu::run_pass`](crate::backend::NativeGpu::run_pass).)
    fn phase<C: DeviceCtx>(&self, phase: usize, ctx: &mut C)
    where
        Self: Sized;
}

/// The device-side surface a kernel thread programs against.
///
/// Every access a kernel can make — global/constant/texture memory,
/// atomics, cooperative staging, cost self-instrumentation, the telemetry
/// port, RNG state marshalling — goes through this trait, so a kernel body
/// is executable by any backend that implements it. Accesses name the
/// typed [`Buf<T>`] handles a kernel holds as fields, so each access's
/// element type is its handle's:
///
/// * [`ThreadCtx`] — the cuda-sim context: every access is bounds-checked,
///   cost-counted, race-tracked and fault-filtered, feeding the modeled
///   clock and the fault-injection machinery.
/// * [`crate::backend::NativeCtx`] — the native host context: plain
///   bounds-checked memory access with **no** per-access simulation; the
///   `charge_*` hooks are no-ops and fault injection is never active.
///
/// The byte-identity contract between the two (DESIGN.md §16) holds because
/// the value semantics of every method below are identical across
/// implementations; only the instrumentation differs.
pub trait DeviceCtx {
    /// Thread index within the block (`threadIdx.x` for linear blocks).
    fn thread_idx(&self) -> usize;
    /// Block index within the grid (`blockIdx.x`).
    fn block_idx(&self) -> usize;
    /// Threads per block (`blockDim.x`).
    fn block_dim(&self) -> usize;

    /// Whether a fault-injection plan is installed for this launch. Kernels
    /// that derive memory indices from *data* (not thread ids) use this to
    /// turn on defensive validation of values read from global memory —
    /// modeling resilient device code — without perturbing the clean path's
    /// cost model. Always `false` on the native backend.
    fn fault_injection_active(&self) -> bool;

    /// Read one element from global memory.
    fn read<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize) -> T;
    /// Write one element to global memory.
    fn write<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize, value: T);
    /// Read one element through the **texture path** (read-only, spatially
    /// cached). Semantically identical to [`read`](Self::read); must only be
    /// used for data no kernel writes during the launch.
    fn read_texture<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize) -> T;
    /// Read from constant memory (broadcast-cached).
    fn read_const<T: DeviceValue>(&mut self, cb: ConstBuf<T>, idx: usize) -> T;
    /// `atomicMin` on a signed 64-bit global location. The update applies
    /// in place, in the serial block and thread order both backends share,
    /// and the return value is the location's true previous value. A
    /// kernel must still not read an atomically updated location in the
    /// same launch: on a GPU, what it would see there depends on block
    /// scheduling.
    fn atomic_min_i64(&mut self, buf: Buf<i64>, idx: usize, value: i64) -> i64;
    /// Bulk read `dst.len()` consecutive elements starting at `start`.
    fn read_slice_into<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, dst: &mut [T]);
    /// Bulk write `src.len()` consecutive elements starting at `start`.
    fn write_slice<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, src: &[T]);
    /// Device-to-device row copy (`memcpy` within global memory) with
    /// overlap-aware memmove semantics.
    fn copy_row<T: DeviceValue>(
        &mut self,
        src: Buf<T>,
        src_start: usize,
        dst: Buf<T>,
        dst_start: usize,
        count: usize,
    );
    /// Uncharged bulk load used for **cooperative** staging: one thread does
    /// the physical copy while *every* participating thread charges its own
    /// share via [`charge_global`](Self::charge_global)/
    /// [`charge_shared`](Self::charge_shared).
    fn cooperative_read<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, dst: &mut [T]);

    /// Borrow `len` elements of a global buffer from `start` **without
    /// copying**, when the backend can expose them. Only `u32` job-id rows
    /// and `i64` problem data qualify: their elements are their own storage
    /// words ([`DeviceValue::Word`]). The simulator answers `None`: every
    /// simulated access must be charged, race-tracked and fault-filtered,
    /// so callers fall back to [`read_slice_into`](Self::read_slice_into). The native
    /// backend returns a direct view, letting hot kernels skip staging data
    /// they only read. The window borrows the context, so no write through
    /// it can run while the window lives. Like the texture path, a window
    /// may only cover data **no thread writes during the launch**.
    #[inline]
    fn global_window<T: DeviceValue<Word = T>>(
        &self,
        _buf: Buf<T>,
        _start: usize,
        _len: usize,
    ) -> Option<&[T]> {
        None
    }

    /// Charge `n` global-memory transactions (the accounting half of a
    /// cooperative load). No-op outside the simulator.
    fn charge_global(&mut self, n: u64);
    /// Charge `n` warp-wide ALU instructions (self-instrumentation for work
    /// the engine cannot observe). No-op outside the simulator.
    fn charge_alu(&mut self, n: u64);
    /// Charge `n` special-function instructions (`exp`, …). No-op outside
    /// the simulator.
    fn charge_special(&mut self, n: u64);
    /// Charge `n` shared-memory accesses. No-op outside the simulator.
    fn charge_shared(&mut self, n: u64);

    /// Read one element through the **instrumentation port**: no cost-model
    /// charge, no fault-stream draw, no race tracking. Reserved for
    /// telemetry buffers (see [`crate::telemetry`]) that must observe a run
    /// without perturbing its modeled time, fault decision streams, or RNG
    /// draw order.
    fn telemetry_read<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize) -> T;
    /// Write one element through the **instrumentation port** (uncharged,
    /// fault-invisible, untracked).
    fn telemetry_write<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize, value: T);

    /// Global linear thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    #[inline]
    fn global_id(&self) -> usize {
        self.block_idx() * self.block_dim() + self.thread_idx()
    }

    /// Load this thread's XORWOW state from a device-resident state array
    /// (3 words per stream, like a `curandState*` argument).
    fn load_rng(&mut self, states: Buf<u64>, slot: usize) -> XorWow {
        let words = [
            self.read(states, slot * 3),
            self.read(states, slot * 3 + 1),
            self.read(states, slot * 3 + 2),
        ];
        XorWow::unpack(words)
    }

    /// Store this thread's XORWOW state back to the device array.
    fn store_rng(&mut self, states: Buf<u64>, slot: usize, rng: &XorWow) {
        let words = rng.pack();
        self.write(states, slot * 3, words[0]);
        self.write(states, slot * 3 + 1, words[1]);
        self.write(states, slot * 3 + 2, words[2]);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ThreadRef {
    block: u32,
    phase: u32,
    thread: u32,
}

#[derive(Debug, Default)]
struct LocationHistory {
    last_write: Option<ThreadRef>,
    /// A bounded sample of readers since the last write (existence of one
    /// conflicting reader is enough to report a race).
    readers: Vec<ThreadRef>,
}

/// Tracks conflicting accesses within one launch.
///
/// Two accesses to the same location conflict when they come from different
/// threads, at least one is a write, and they are **not** ordered by a
/// barrier — i.e. not in the same block with the earlier access in an
/// earlier phase. (Blocks share no barrier, so cross-block accesses are
/// never ordered.)
#[derive(Debug, Default)]
struct RaceTracker {
    locations: HashMap<(usize, usize), LocationHistory>,
    first_race: Option<String>,
}

impl RaceTracker {
    fn ordered_before(a: ThreadRef, b: ThreadRef) -> bool {
        a.block == b.block && a.phase < b.phase
    }

    fn conflict(a: ThreadRef, b: ThreadRef) -> bool {
        (a.block != b.block || a.thread != b.thread) && !Self::ordered_before(a, b)
    }

    fn on_read(&mut self, buf: usize, idx: usize, who: ThreadRef) {
        if self.first_race.is_some() {
            return;
        }
        let h = self.locations.entry((buf, idx)).or_default();
        if let Some(w) = h.last_write {
            if Self::conflict(w, who) {
                self.first_race = Some(format!(
                    "buffer {buf}[{idx}]: read by (block {}, thread {}, phase {}) races with \
                     write by (block {}, thread {}, phase {})",
                    who.block, who.thread, who.phase, w.block, w.thread, w.phase
                ));
                return;
            }
        }
        if h.readers.len() < 4 && !h.readers.contains(&who) {
            h.readers.push(who);
        }
    }

    fn on_write(&mut self, buf: usize, idx: usize, who: ThreadRef) {
        if self.first_race.is_some() {
            return;
        }
        let h = self.locations.entry((buf, idx)).or_default();
        if let Some(w) = h.last_write {
            if Self::conflict(w, who) {
                self.first_race = Some(format!(
                    "buffer {buf}[{idx}]: write by (block {}, thread {}, phase {}) races with \
                     write by (block {}, thread {}, phase {})",
                    who.block, who.thread, who.phase, w.block, w.thread, w.phase
                ));
                return;
            }
        }
        if let Some(&r) = h.readers.iter().find(|&&r| Self::conflict(r, who)) {
            self.first_race = Some(format!(
                "buffer {buf}[{idx}]: write by (block {}, thread {}, phase {}) races with \
                 read by (block {}, thread {}, phase {})",
                who.block, who.thread, who.phase, r.block, r.thread, r.phase
            ));
            return;
        }
        h.last_write = Some(who);
        h.readers.clear();
    }
}

/// Everything one block's execution produced, merged by the engine in
/// block-index order.
struct BlockOutcome {
    /// Lockstep warp costs (lane-max folded).
    warps: Vec<CostCounter>,
    /// Sum of the block's raw per-thread costs.
    total: CostCounter,
    /// Bit flips injected into this block's reads.
    bit_flips: u64,
}

/// Execute one block to completion (all phases, barrier semantics) against
/// `mem` and return its costs and injected flips.
#[allow(clippy::too_many_arguments)]
fn run_block<K: Kernel>(
    kernel: &K,
    block_idx: usize,
    block_dim: usize,
    phases: usize,
    mem: &mut MemoryPool,
    warp_size: usize,
    read_cfg: Option<ReadFaultCfg>,
    mut race: Option<&mut RaceTracker>,
) -> BlockOutcome {
    let mut costs = vec![CostCounter::default(); block_dim];
    // Each simulated thread's fault stream is derived from the pre-drawn
    // launch salt and its global id — private state, immune to scheduling.
    let mut fault_streams: Vec<Option<ReadFaultStream>> = (0..block_dim)
        .map(|t| {
            read_cfg
                .map(|cfg| ReadFaultStream::for_thread(cfg, (block_idx * block_dim + t) as u64))
        })
        .collect();
    for phase in 0..phases {
        for thread_idx in 0..block_dim {
            let mut ctx = ThreadCtx {
                thread_idx,
                block_idx,
                block_dim,
                phase,
                mem: &mut *mem,
                cost: &mut costs[thread_idx],
                race: race.as_deref_mut(),
                fault: fault_streams[thread_idx].as_mut(),
            };
            kernel.phase(phase, &mut ctx);
        }
    }
    // Fold threads into lockstep warps.
    let warps: Vec<CostCounter> = costs
        .chunks(warp_size)
        .map(|lanes| {
            lanes.iter().fold(CostCounter::default(), |acc, c| CostCounter::lane_max(&acc, c))
        })
        .collect();
    let mut total = CostCounter::default();
    for c in &costs {
        total.add(c);
    }
    let bit_flips = fault_streams.iter().flatten().map(|s| s.flips).sum();
    BlockOutcome { warps, total, bit_flips }
}

/// Per-thread execution context handed to [`Kernel::phase`]. Kernels
/// reach its thread geometry and cost counters through [`DeviceCtx`].
pub struct ThreadCtx<'a> {
    thread_idx: usize,
    block_idx: usize,
    block_dim: usize,
    phase: usize,
    mem: &'a mut MemoryPool,
    cost: &'a mut CostCounter,
    race: Option<&'a mut RaceTracker>,
    fault: Option<&'a mut ReadFaultStream>,
}

impl ThreadCtx<'_> {
    fn who(&self) -> ThreadRef {
        ThreadRef {
            block: self.block_idx as u32,
            phase: self.phase as u32,
            thread: self.thread_idx as u32,
        }
    }

    /// Report reads of `len` elements of `buf` from `start` to the race
    /// detector, if it is on.
    fn track_reads(&mut self, buf: usize, start: usize, len: usize) {
        let who = self.who();
        if let Some(race) = self.race.as_deref_mut() {
            for i in start..start + len {
                race.on_read(buf, i, who);
            }
        }
    }
}

/// The simulator implementation of the device surface: every access is
/// cost-counted toward the modeled clock, tracked by the (optional) race
/// detector, and filtered through the (optional) per-thread fault stream.
impl DeviceCtx for ThreadCtx<'_> {
    #[inline]
    fn thread_idx(&self) -> usize {
        self.thread_idx
    }

    #[inline]
    fn block_idx(&self) -> usize {
        self.block_idx
    }

    #[inline]
    fn block_dim(&self) -> usize {
        self.block_dim
    }

    #[inline]
    fn fault_injection_active(&self) -> bool {
        self.fault.is_some()
    }

    /// Read one element from global memory (counts one transaction).
    #[inline]
    fn read<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize) -> T {
        self.cost.global_transactions += 1;
        self.cost.alu += 1;
        self.track_reads(buf.id, idx, 1);
        self.mem.read(buf, idx, self.fault.as_deref_mut())
    }

    /// Write one element to global memory (counts one transaction).
    #[inline]
    fn write<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize, value: T) {
        self.cost.global_transactions += 1;
        self.cost.alu += 1;
        let who = self.who();
        if let Some(race) = self.race.as_deref_mut() {
            race.on_write(buf.id, idx, who);
        }
        self.mem.write(buf, idx, value);
    }

    /// Read one element through the **texture path** (read-only, spatially
    /// cached — the paper's conclusion proposes this for future work). The
    /// memory model amortizes
    /// [`crate::cost::TEXTURE_READS_PER_TRANSACTION`] texture reads per
    /// global transaction. Semantically identical to [`read`](Self::read);
    /// must only be used for data no kernel writes during the launch (race
    /// detection still checks this).
    #[inline]
    fn read_texture<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize) -> T {
        self.cost.texture_reads += 1;
        self.cost.alu += 1;
        self.track_reads(buf.id, idx, 1);
        self.mem.read(buf, idx, self.fault.as_deref_mut())
    }

    /// Read from constant memory (broadcast-cached: ALU cost only).
    #[inline]
    fn read_const<T: DeviceValue>(&mut self, cb: ConstBuf<T>, idx: usize) -> T {
        self.cost.alu += 1;
        self.mem.read_const(cb, idx)
    }

    /// `atomicMin` on a signed 64-bit global location. Atomics never race
    /// (they serialize at L2) but pay [`DeviceSpec::cpi_atomic`].
    fn atomic_min_i64(&mut self, buf: Buf<i64>, idx: usize, value: i64) -> i64 {
        self.cost.atomics += 1;
        self.mem.atomic_min_i64(buf, idx, value)
    }

    /// Bulk read `dst.len()` consecutive elements starting at `start`
    /// (charges one transaction per element, like the per-element
    /// [`read`](Self::read) — per-thread rows are strided across threads, so
    /// accesses do not coalesce; see the crate docs).
    fn read_slice_into<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, dst: &mut [T]) {
        self.cost.global_transactions += dst.len() as u64;
        self.cost.alu += dst.len() as u64;
        self.track_reads(buf.id, start, dst.len());
        self.mem.read_slice_into(buf, start, dst, self.fault.as_deref_mut());
    }

    /// Bulk write `src.len()` consecutive elements starting at `start`
    /// (charges one transaction per element).
    fn write_slice<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, src: &[T]) {
        self.cost.global_transactions += src.len() as u64;
        self.cost.alu += src.len() as u64;
        let who = self.who();
        if let Some(race) = self.race.as_deref_mut() {
            for i in start..start + src.len() {
                race.on_write(buf.id, i, who);
            }
        }
        self.mem.write_slice(buf, start, src);
    }

    /// Device-to-device row copy (`memcpy` within global memory); charges a
    /// read and a write transaction per element.
    fn copy_row<T: DeviceValue>(
        &mut self,
        src: Buf<T>,
        src_start: usize,
        dst: Buf<T>,
        dst_start: usize,
        count: usize,
    ) {
        self.cost.global_transactions += 2 * count as u64;
        self.cost.alu += count as u64;
        let who = self.who();
        if let Some(race) = self.race.as_deref_mut() {
            for i in 0..count {
                race.on_read(src.id, src_start + i, who);
                race.on_write(dst.id, dst_start + i, who);
            }
        }
        self.mem.copy(src, src_start, dst, dst_start, count);
    }

    /// Uncharged bulk load used for **cooperative** staging: one thread does
    /// the physical copy while *every* participating thread charges its own
    /// share via [`charge_global`](Self::charge_global)/
    /// [`charge_shared`](Self::charge_shared). Race detection still sees the
    /// reads.
    fn cooperative_read<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, dst: &mut [T]) {
        self.track_reads(buf.id, start, dst.len());
        self.mem.read_slice_into(buf, start, dst, self.fault.as_deref_mut());
    }

    /// Charge `n` global-memory transactions (the accounting half of a
    /// cooperative load).
    #[inline]
    fn charge_global(&mut self, n: u64) {
        self.cost.global_transactions += n;
    }

    /// Charge `n` warp-wide ALU instructions (self-instrumentation for work
    /// the engine cannot observe, e.g. register arithmetic in a loop).
    #[inline]
    fn charge_alu(&mut self, n: u64) {
        self.cost.alu += n;
    }

    /// Charge `n` special-function instructions (`exp`, …).
    #[inline]
    fn charge_special(&mut self, n: u64) {
        self.cost.special += n;
    }

    /// Charge `n` shared-memory accesses.
    #[inline]
    fn charge_shared(&mut self, n: u64) {
        self.cost.shared_accesses += n;
    }

    /// Read one element through the **instrumentation port**: no cost-model
    /// charge, no fault-stream draw, no race tracking. Reserved for
    /// telemetry buffers (see [`crate::telemetry`]) that must observe a run
    /// without perturbing its modeled time, fault decision streams, or RNG
    /// draw order. Never use this for algorithm state: it models an
    /// out-of-band debug channel, not device memory traffic.
    #[inline]
    fn telemetry_read<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize) -> T {
        self.mem.read(buf, idx, None)
    }

    /// Write one element through the **instrumentation port** (uncharged,
    /// fault-invisible, untracked — see
    /// [`telemetry_read`](Self::telemetry_read)).
    #[inline]
    fn telemetry_write<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize, value: T) {
        self.mem.write(buf, idx, value);
    }
}

/// Outcome of a successful launch.
#[derive(Debug, Clone)]
pub struct LaunchStats {
    /// Modeled timing of the launch.
    pub timing: KernelTiming,
    /// Device-wide summed cost counters.
    pub total_cost: CostCounter,
    /// Threads executed.
    pub threads: usize,
}

/// One simulated GPU: device spec, memory, profiler, fault state.
#[derive(Debug)]
pub struct Gpu {
    spec: DeviceSpec,
    pool: MemoryPool,
    profiler: Profiler,
    race_detection: bool,
    fault: Option<FaultState>,
}

impl Gpu {
    /// Bring up a device.
    pub fn new(spec: DeviceSpec) -> Self {
        Gpu {
            spec,
            pool: MemoryPool::default(),
            profiler: Profiler::new(),
            race_detection: false,
            fault: None,
        }
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Enable/disable data-race detection for subsequent launches.
    /// Detection is exact for the access patterns it tracks but costs memory
    /// proportional to the touched locations — intended for tests and small
    /// launches.
    pub fn set_race_detection(&mut self, on: bool) {
        self.race_detection = on;
    }

    /// Install (or remove, with `None`) a fault-injection plan for
    /// subsequent launches. Installing a plan resets its decision streams
    /// and counters; a plan whose rates are all zero is treated as absent.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan.filter(FaultPlan::is_active).map(FaultState::new);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(FaultState::plan)
    }

    /// Counters of the faults injected so far (zeroes when no plan is
    /// installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Allocate a zero-initialized global buffer of `len` elements.
    pub fn alloc<T: DeviceValue>(&mut self, len: usize) -> Buf<T> {
        self.pool.alloc(len)
    }

    fn record_transfer(&mut self, dir: TransferDir, bytes: usize) {
        let seconds = self.spec.transfer_time(bytes);
        self.profiler.push(TimelineEvent::Transfer { dir, bytes, seconds });
    }

    /// Copy host data into a device buffer (`cudaMemcpyHostToDevice`),
    /// recording the modeled transfer time.
    ///
    /// # Panics
    /// Panics if `data.len() != buf.len()`.
    pub fn h2d<T: DeviceValue>(&mut self, buf: Buf<T>, data: &[T]) {
        self.pool.h2d(buf, data);
        self.record_transfer(TransferDir::HostToDevice, std::mem::size_of_val(data));
    }

    /// Copy a device buffer back to the host (`cudaMemcpyDeviceToHost`),
    /// recording the modeled transfer time.
    pub fn d2h<T: DeviceValue>(&mut self, buf: Buf<T>) -> Vec<T> {
        let out = self.pool.d2h(buf);
        self.record_transfer(TransferDir::DeviceToHost, std::mem::size_of_val(out.as_slice()));
        out
    }

    /// Copy a sub-range of a device buffer back to the host, recording the
    /// modeled transfer time for exactly those bytes (e.g. fetching only the
    /// winning thread's sequence row after the final reduction).
    pub fn d2h_range<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, len: usize) -> Vec<T> {
        let out = self.pool.d2h_range(buf, start, len);
        self.record_transfer(TransferDir::DeviceToHost, std::mem::size_of_val(out.as_slice()));
        out
    }

    /// Host-side peek at device memory **without** a modeled transfer (a
    /// debugging aid; real experiments must use [`d2h`](Self::d2h) so the
    /// timing includes the copy, as the paper's speed-ups do).
    pub fn peek<T: DeviceValue>(&self, buf: Buf<T>) -> Vec<T> {
        self.pool.d2h(buf)
    }

    /// Allocate and fill a constant-memory region.
    pub fn alloc_const<T: DeviceValue>(&mut self, data: &[T]) -> Result<ConstBuf<T>, LaunchError> {
        let region = self.pool.alloc_const(data, self.spec.constant_mem_bytes)?;
        self.record_transfer(TransferDir::HostToDevice, std::mem::size_of_val(data));
        Ok(region)
    }

    /// Launch a kernel.
    ///
    /// Blocks execute serially, in block-index order, on the calling
    /// thread; barrier semantics are exact (phase-structured); timing is
    /// produced by the analytic model in [`crate::cost`] and recorded in
    /// the profiler.
    pub fn launch<K: Kernel>(
        &mut self,
        kernel: &K,
        cfg: LaunchConfig,
    ) -> Result<LaunchStats, LaunchError> {
        let block_dim = cfg.block_size();
        let shared_bytes = kernel.shared_mem_bytes(block_dim);
        cfg.validate(&self.spec, shared_bytes).map_err(LaunchError::InvalidConfig)?;

        // Fault injection, launch-level decisions — all pre-drawn before
        // any block runs, so block scheduling cannot perturb the streams. A
        // transient failure aborts before any thread runs (memory
        // untouched, retry safe, read-fault stream not consumed); a hang
        // lets the launch execute and is handled by the watchdog after
        // timing (below).
        let mut hang = false;
        let mut read_cfg = None;
        if let Some(f) = self.fault.as_mut() {
            // A dead device fails every launch before any stream advances:
            // the crash leaves the pre-crash fault sequence untouched.
            if f.draw_device_lost() {
                return Err(LaunchError::DeviceLost { kernel: kernel.name().to_string() });
            }
            if f.draw_launch_failure() {
                return Err(LaunchError::TransientFault(format!(
                    "kernel `{}` failed to launch (injected)",
                    kernel.name()
                )));
            }
            hang = f.draw_hang();
            // `inert` keeps `fault_injection_active()` observable by
            // kernels even when the plan cannot flip bits.
            read_cfg = Some(f.launch_read_faults().unwrap_or_else(ReadFaultCfg::inert));
        }

        let grid_dim = cfg.num_blocks();
        let phases = kernel.num_phases().max(1);
        let warp_size = self.spec.warp_size;

        // Run the blocks in block-index order, merging their cost totals,
        // warp costs and fault counters as they finish.
        let mut race = self.race_detection.then(RaceTracker::default);
        let mut per_block_warp_costs = Vec::with_capacity(grid_dim);
        let mut total_cost = CostCounter::default();
        let mut bit_flips = 0u64;
        for block_idx in 0..grid_dim {
            let outcome = run_block(
                kernel,
                block_idx,
                block_dim,
                phases,
                &mut self.pool,
                warp_size,
                read_cfg,
                race.as_mut(),
            );
            total_cost.add(&outcome.total);
            bit_flips += outcome.bit_flips;
            per_block_warp_costs.push(outcome.warps);
        }
        if let Some(f) = self.fault.as_mut() {
            f.absorb_bit_flips(bit_flips);
        }

        if let Some(race) = race {
            if let Some(msg) = race.first_race {
                return Err(LaunchError::DataRace(msg));
            }
        }

        let timing = model_kernel_time(&self.spec, &cfg, &per_block_warp_costs, phases);

        // Watchdog: an injected hang inflates the launch's modeled time; if
        // it exceeds `watchdog_factor ×` the clean cost-model budget, the
        // kernel is killed. The device was busy until the kill, so the
        // budget is charged to the timeline; the launch's writes are
        // unspecified (treated as failed by the recovery layers).
        if hang {
            let f = self.fault.as_mut().expect("hang implies an installed plan");
            let plan = f.plan();
            let budget = timing.seconds * plan.watchdog_factor;
            let hung_seconds = timing.seconds * plan.hang_slowdown;
            if hung_seconds > budget {
                f.record_watchdog_kill();
                self.profiler.push(TimelineEvent::Kernel {
                    name: format!("{}[watchdog-kill]", kernel.name()),
                    config: cfg,
                    seconds: budget,
                    total_cost,
                });
                return Err(LaunchError::KernelTimeout {
                    kernel: kernel.name().to_string(),
                    modeled_seconds: hung_seconds,
                    budget_seconds: budget,
                });
            }
        }

        self.profiler.push(TimelineEvent::Kernel {
            name: kernel.name().to_string(),
            config: cfg,
            seconds: timing.seconds,
            total_cost,
        });
        Ok(LaunchStats { timing, total_cost, threads: cfg.total_threads() })
    }

    /// The profiler timeline.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Open a named span carrying key/value metadata (e.g. the generation
    /// index and temperature of one SA generation), rendered into the trace
    /// sink's args. Spans carry no modeled time; they only annotate the
    /// timeline for trace rendering.
    pub fn span_begin_args(&mut self, name: impl Into<String>, args: Vec<(String, String)>) {
        self.profiler.span_begin_args(name, args);
    }

    /// Close the innermost open span with this name.
    pub fn span_end(&mut self, name: impl Into<String>) {
        self.profiler.span_end(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExecBackend, NativeGpu};
    use crate::scratch::ScratchArena;

    /// Doubles every element of its buffer.
    struct Double {
        buf: Buf<i64>,
    }
    impl Kernel for Double {
        fn name(&self) -> &str {
            "double"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            let gid = ctx.global_id();
            if gid < self.buf.len() {
                let v = ctx.read(self.buf, gid);
                ctx.write(self.buf, gid, v * 2);
            }
        }
    }

    #[test]
    fn simple_kernel_runs() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(10);
        gpu.h2d(buf, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let stats = gpu.launch(&Double { buf }, LaunchConfig::cover(10, 4)).unwrap();
        assert_eq!(gpu.d2h(buf), vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]);
        assert_eq!(stats.threads, 12); // 3 blocks × 4
        assert!(stats.timing.seconds > 0.0);
        assert!(stats.total_cost.global_transactions >= 20);
    }

    /// Phase 0 stages each thread's value in its block's scratch slot (the
    /// block's shared memory); phase 1 reads them all — barrier semantics.
    struct BarrierSum {
        buf: Buf<i64>,
        /// One slot per block.
        staged: ScratchArena<Vec<i64>>,
    }
    impl Kernel for BarrierSum {
        fn name(&self) -> &str {
            "barrier_sum"
        }
        fn shared_mem_bytes(&self, block: usize) -> usize {
            block * 8
        }
        fn num_phases(&self) -> usize {
            2
        }
        fn phase<C: DeviceCtx>(&self, p: usize, ctx: &mut C) {
            let (block, block_dim, t) = (ctx.block_idx(), ctx.block_dim(), ctx.thread_idx());
            match p {
                0 => {
                    // Each thread stages its value; thread 0 reads *everyone's*
                    // value in phase 1, which is only safe past the barrier.
                    let v = ctx.read(self.buf, ctx.global_id());
                    self.staged.with_slot(block, |sh| {
                        sh.resize(block_dim, 0);
                        sh[t] = v;
                    });
                    ctx.charge_shared(1);
                }
                _ => {
                    if t == 0 {
                        let sum: i64 = self.staged.with_slot(block, |sh| sh.iter().sum());
                        ctx.charge_shared(block_dim as u64);
                        ctx.write(self.buf, block * block_dim, sum);
                    }
                }
            }
        }
    }

    /// The buffer after one `BarrierSum` launch of 2 blocks of 4 threads.
    fn barrier_sums<B: ExecBackend>(gpu: &mut B) -> Vec<i64> {
        let buf = gpu.alloc::<i64>(8);
        gpu.h2d(buf, &[1, 2, 3, 4, 10, 20, 30, 40]);
        let kernel = BarrierSum { buf, staged: ScratchArena::new(2) };
        gpu.launch_kernel(&kernel, LaunchConfig::linear(2, 4)).unwrap();
        gpu.d2h(buf)
    }

    #[test]
    fn barrier_makes_staged_values_visible() {
        // Each block's sum lands on its first element and counts only its
        // own four values.
        let want = vec![10, 2, 3, 4, 100, 20, 30, 40];
        assert_eq!(barrier_sums(&mut Gpu::new(DeviceSpec::gt560m())), want, "sim");
        assert_eq!(barrier_sums(&mut NativeGpu::new(DeviceSpec::gt560m())), want, "native");
    }

    /// All threads write location 0 — an obvious data race.
    struct Racy {
        buf: Buf<i64>,
    }
    impl Kernel for Racy {
        fn name(&self) -> &str {
            "racy"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            let id = ctx.global_id() as i64;
            ctx.write(self.buf, 0, id);
        }
    }

    #[test]
    fn race_detection_catches_conflicting_writes() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let buf = gpu.alloc::<i64>(1);
        let err = gpu.launch(&Racy { buf }, LaunchConfig::linear(1, 4)).unwrap_err();
        assert!(matches!(err, LaunchError::DataRace(_)), "{err}");
    }

    #[test]
    fn race_detection_allows_disjoint_writes() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let buf = gpu.alloc::<i64>(8);
        gpu.launch(&Double { buf }, LaunchConfig::linear(2, 4)).unwrap();
    }

    /// Same-location atomic min from every thread — must not race and must
    /// produce the true minimum.
    struct AtomicMin {
        values: Buf<i64>,
        out: Buf<i64>,
    }
    impl Kernel for AtomicMin {
        fn name(&self) -> &str {
            "atomic_min"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            let v = ctx.read(self.values, ctx.global_id());
            ctx.atomic_min_i64(self.out, 0, v);
        }
    }

    #[test]
    fn atomic_min_finds_minimum_without_race() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let values = gpu.alloc::<i64>(8);
        gpu.h2d(values, &[9, 4, 7, 1, 8, 2, 6, 3]);
        let out = gpu.alloc::<i64>(1);
        gpu.h2d(out, &[i64::MAX]);
        let stats = gpu.launch(&AtomicMin { values, out }, LaunchConfig::linear(2, 4)).unwrap();
        assert_eq!(gpu.d2h(out)[0], 1);
        assert_eq!(stats.total_cost.atomics, 8);
    }

    #[test]
    fn launch_rejects_oversized_block() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(1);
        let err = gpu.launch(&Double { buf }, LaunchConfig::linear(1, 2048)).unwrap_err();
        assert!(matches!(err, LaunchError::InvalidConfig(_)));
    }

    #[test]
    fn constant_memory_limit_enforced() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let big = vec![0i64; 9000]; // 72 KB > 64 KB
        let err = gpu.alloc_const(&big).unwrap_err();
        assert!(matches!(err, LaunchError::ConstantMemoryExceeded { .. }));
        // A small region still fits afterwards.
        assert!(gpu.alloc_const(&[1i64, 2, 3]).is_ok());
    }

    #[test]
    fn transfers_are_profiled() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(1000);
        gpu.h2d(buf, &vec![0i64; 1000]);
        let _ = gpu.d2h(buf);
        assert!(gpu.profiler().transfer_seconds() > 0.0);
        assert_eq!(gpu.profiler().events().len(), 2);
        assert!(gpu.profiler().total_seconds() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        struct Oob {
            buf: Buf<i64>,
        }
        impl Kernel for Oob {
            fn name(&self) -> &str {
                "oob"
            }
            fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
                let _ = ctx.read(self.buf, 99);
            }
        }
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(4);
        let _ = gpu.launch(&Oob { buf }, LaunchConfig::linear(1, 1));
    }

    /// Doubles with wrapping arithmetic: under bit-flip injection a read can
    /// return any i64, so the test kernel must tolerate extreme values
    /// (exactly the hardening real kernels need).
    struct WrappingDouble {
        buf: Buf<i64>,
    }
    impl Kernel for WrappingDouble {
        fn name(&self) -> &str {
            "wrapping_double"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            let gid = ctx.global_id();
            if gid < self.buf.len() {
                let v = ctx.read(self.buf, gid);
                ctx.write(self.buf, gid, v.wrapping_mul(2));
            }
        }
    }

    /// Run `launches` WrappingDouble launches under `plan`, returning the
    /// error sequence, final memory and fault stats.
    fn faulted_run(
        plan: FaultPlan,
        launches: usize,
    ) -> (Vec<Option<LaunchError>>, Vec<i64>, FaultStats) {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(8);
        gpu.h2d(buf, &[1, 2, 3, 4, 5, 6, 7, 8]);
        gpu.set_fault_plan(Some(plan));
        let mut errors = Vec::new();
        for _ in 0..launches {
            errors.push(gpu.launch(&WrappingDouble { buf }, LaunchConfig::linear(2, 4)).err());
        }
        (errors, gpu.d2h(buf), gpu.fault_stats())
    }

    #[test]
    fn fault_sequence_is_reproducible_per_seed() {
        let plan = FaultPlan::with_rates(77, 0.3, 0.02, 0.1);
        let (e1, m1, s1) = faulted_run(plan.clone(), 200);
        let (e2, m2, s2) = faulted_run(plan.clone(), 200);
        assert_eq!(e1, e2, "same plan must reproduce the identical error sequence");
        assert_eq!(m1, m2, "same plan must reproduce identical memory");
        assert_eq!(s1, s2);
        assert!(s1.transient_launch_failures > 0);
        assert!(s1.hung_kernels > 0);
        assert_eq!(s1.launches_attempted, 200);
        // A different seed diverges.
        let (e3, _, _) = faulted_run(plan.reseeded(78), 200);
        assert_ne!(e1, e3);
    }

    #[test]
    fn transient_failure_leaves_memory_untouched() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(4);
        gpu.h2d(buf, &[1, 2, 3, 4]);
        gpu.set_fault_plan(Some(FaultPlan::with_rates(0, 1.0, 0.0, 0.0)));
        let err = gpu.launch(&Double { buf }, LaunchConfig::linear(1, 4)).unwrap_err();
        assert!(matches!(err, LaunchError::TransientFault(_)), "{err}");
        assert!(err.is_transient());
        assert_eq!(gpu.peek(buf), vec![1, 2, 3, 4], "failed launch must not execute");
        assert_eq!(gpu.profiler().kernel_launches(), 0);
    }

    #[test]
    fn watchdog_kills_hung_kernels_and_charges_the_budget() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(4);
        gpu.h2d(buf, &[1, 2, 3, 4]);
        let plan = FaultPlan {
            watchdog_factor: 8.0,
            hang_slowdown: 1e4,
            ..FaultPlan::with_rates(0, 0.0, 0.0, 1.0)
        };
        gpu.set_fault_plan(Some(plan));
        let err = gpu.launch(&Double { buf }, LaunchConfig::linear(1, 4)).unwrap_err();
        let LaunchError::KernelTimeout { kernel, modeled_seconds, budget_seconds } = &err else {
            panic!("expected KernelTimeout, got {err}");
        };
        assert_eq!(kernel, "double");
        assert!(modeled_seconds > budget_seconds);
        assert!(err.is_transient());
        assert_eq!(gpu.fault_stats().hung_kernels, 1);
        // The timeline charges the watchdog budget for the killed attempt.
        assert!((gpu.profiler().kernel_seconds() - budget_seconds).abs() < 1e-12);
    }

    #[test]
    fn injected_worker_crash_kills_the_device_for_good() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(4);
        gpu.h2d(buf, &[1, 2, 3, 4]);
        gpu.set_fault_plan(Some(FaultPlan::disabled().reseeded(5).with_worker_crash(1.0, 3)));
        let mut survived = 0u64;
        let err = loop {
            match gpu.launch(&Double { buf }, LaunchConfig::linear(1, 4)) {
                Ok(_) => survived += 1,
                Err(e) => break e,
            }
            assert!(survived <= 3, "horizon 3 bounds the crash index");
        };
        assert!(matches!(err, LaunchError::DeviceLost { .. }), "{err}");
        assert!(!err.is_transient(), "a lost device must not be retried in place");
        assert_eq!(gpu.fault_stats().worker_crashes, 1);
        // The device stays dead: every further launch fails without
        // executing, and the crash is not double-counted.
        let before = gpu.peek(buf);
        for _ in 0..5 {
            let e = gpu.launch(&Double { buf }, LaunchConfig::linear(1, 4)).unwrap_err();
            assert!(matches!(e, LaunchError::DeviceLost { .. }));
        }
        assert_eq!(gpu.peek(buf), before, "launches on a dead device must not execute");
        assert_eq!(gpu.fault_stats().worker_crashes, 1);
        // Installing a fresh plan models standing up a fresh device.
        gpu.set_fault_plan(None);
        gpu.launch(&Double { buf }, LaunchConfig::linear(1, 4)).unwrap();
    }

    #[test]
    fn hang_below_watchdog_budget_completes() {
        // slowdown ≤ factor: the kernel is slow but finishes before the
        // watchdog fires, so the launch succeeds.
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(4);
        gpu.h2d(buf, &[1, 2, 3, 4]);
        let plan = FaultPlan {
            watchdog_factor: 8.0,
            hang_slowdown: 2.0,
            ..FaultPlan::with_rates(0, 0.0, 0.0, 1.0)
        };
        gpu.set_fault_plan(Some(plan));
        gpu.launch(&Double { buf }, LaunchConfig::linear(1, 4)).unwrap();
        assert_eq!(gpu.fault_stats().hung_kernels, 0);
    }

    #[test]
    fn bit_flips_corrupt_reads_but_not_memory() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(64);
        let host: Vec<i64> = (0..64).collect();
        gpu.h2d(buf, &host);
        gpu.set_fault_plan(Some(FaultPlan::with_rates(5, 0.0, 1.0, 0.0)));
        let out = gpu.alloc::<i64>(64);

        /// Copies src[gid] → dst[gid] (read passes through the fault layer).
        struct CopyK {
            src: Buf<i64>,
            dst: Buf<i64>,
        }
        impl Kernel for CopyK {
            fn name(&self) -> &str {
                "copy"
            }
            fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
                let gid = ctx.global_id();
                let v = ctx.read(self.src, gid);
                ctx.write(self.dst, gid, v);
            }
        }
        gpu.launch(&CopyK { src: buf, dst: out }, LaunchConfig::linear(2, 32)).unwrap();
        let copied = gpu.peek(out);
        assert_ne!(copied, host, "flip rate 1.0 must corrupt the copied values");
        for (c, h) in copied.iter().zip(&host) {
            assert_eq!((c ^ h).count_ones(), 1, "exactly one bit flips per read");
        }
        // The *source* memory is intact: flips are read-side transients.
        gpu.set_fault_plan(None);
        assert_eq!(gpu.peek(buf), host);
        assert_eq!(gpu.fault_stats().bit_flips, 0, "stats reset with the plan");
    }

    #[test]
    fn race_detection_still_fires_with_injection_enabled() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        gpu.set_fault_plan(Some(FaultPlan::with_rates(11, 0.0, 0.2, 0.0)));
        let buf = gpu.alloc::<i64>(1);
        let err = gpu.launch(&Racy { buf }, LaunchConfig::linear(1, 4)).unwrap_err();
        assert!(matches!(err, LaunchError::DataRace(_)), "{err}");
        assert!(!err.is_transient(), "races are bugs, not retryable faults");
    }

    #[test]
    fn inactive_plan_is_not_installed() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_fault_plan(Some(FaultPlan::disabled()));
        assert!(gpu.fault_plan().is_none());
        let buf = gpu.alloc::<i64>(4);
        gpu.h2d(buf, &[1, 2, 3, 4]);
        gpu.launch(&Double { buf }, LaunchConfig::linear(1, 4)).unwrap();
        assert_eq!(gpu.d2h(buf), vec![2, 4, 6, 8]);
    }

    #[test]
    fn rng_state_survives_round_trip_through_device_memory() {
        struct RngStep {
            states: Buf<u64>,
            out: Buf<i64>,
        }
        impl Kernel for RngStep {
            fn name(&self) -> &str {
                "rng_step"
            }
            fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
                let slot = ctx.global_id();
                let mut rng = ctx.load_rng(self.states, slot);
                let v = rng.next_u32() as i64;
                ctx.write(self.out, slot, v);
                ctx.store_rng(self.states, slot, &rng);
            }
        }
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let states = gpu.alloc::<u64>(2 * 3);
        let mut host_states = Vec::new();
        for t in 0..2 {
            host_states.extend(XorWow::new(99, t as u64).pack());
        }
        gpu.h2d(states, &host_states);
        let out = gpu.alloc::<i64>(2);
        let kernel = RngStep { states, out };
        gpu.launch(&kernel, LaunchConfig::linear(1, 2)).unwrap();
        let first = gpu.d2h(out);
        gpu.launch(&kernel, LaunchConfig::linear(1, 2)).unwrap();
        let second = gpu.d2h(out);
        // Host reference streams must match the device sequence.
        for t in 0..2 {
            let mut reference = XorWow::new(99, t as u64);
            assert_eq!(first[t], reference.next_u32() as i64);
            assert_eq!(second[t], reference.next_u32() as i64);
        }
    }
}
