//! Kernel execution engine: launches, barriers, memory access, data-race
//! detection, cost aggregation, parallel block dispatch.
//!
//! Blocks of a launch execute on a configurable number of host threads
//! (see [`crate::dispatch::SimParallelism`]); determinism is a hard
//! contract, maintained by three mechanisms (DESIGN.md §11):
//!
//! * fault decisions are pre-drawn per launch and derived per simulated
//!   thread (`(salt, global id)`), so host scheduling cannot perturb them;
//! * atomics are staged per block and merged in block-index order after
//!   every block has run;
//! * the modeled clock is computed from per-block cost counters that are
//!   also merged in block-index order.
//!
//! Race detection keeps its exact cross-block semantics by falling back to
//! serial in-line execution while enabled.

use crate::cost::{model_kernel_time, CostCounter, KernelTiming};
use crate::device::DeviceSpec;
use crate::dispatch::{SimParallelism, WorkerPool};
use crate::fault::{FaultPlan, FaultState, FaultStats, ReadFaultCfg, ReadFaultStream};
use crate::grid::LaunchConfig;
use crate::memory::{Buf, ConstBuf, DeviceValue, ErasedBuf, MemoryPool, WordValue};
use crate::profiler::{Profiler, TimelineEvent, TransferDir};
use crate::rng::XorWow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
/// `__syncthreads()` barriers are expressed structurally: the kernel body is
/// split into [`num_phases`](Kernel::num_phases) phases, and the engine
/// guarantees that every thread of a block completes phase `p` before any
/// thread enters `p + 1` — exactly the barrier semantics the paper relies on
/// in its fitness kernel ("this synchronization ensures that all the write
/// operations on the shared memory are finished before reading them").
pub trait Kernel {
    /// Per-block shared memory (built once per block, mutated by all of the
    /// block's threads).
    type Shared;
    /// Per-thread registers persisting across phases.
    type ThreadState: Default;

    /// Kernel name (profiler label).
    fn name(&self) -> &str;

    /// Construct the block's shared memory.
    fn make_shared(&self, block_dim: usize) -> Self::Shared;

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
    /// paths executing this exact code.
    fn phase<C: DeviceCtx>(
        &self,
        phase: usize,
        ctx: &mut C,
        shared: &mut Self::Shared,
        state: &mut Self::ThreadState,
    );
}

/// Buffer-handle argument accepted by the typed access methods: either a
/// typed [`Buf<T>`] or an [`ErasedBuf`] kernel argument.
pub trait AsBuf<T> {
    /// `(pool id, element count)`.
    fn id_len(&self) -> (usize, usize);
}

impl<T: DeviceValue> AsBuf<T> for Buf<T> {
    fn id_len(&self) -> (usize, usize) {
        (self.id, self.len)
    }
}

impl<T: DeviceValue> AsBuf<T> for ErasedBuf {
    fn id_len(&self) -> (usize, usize) {
        (self.id, self.len)
    }
}

/// The device-side surface a kernel thread programs against.
///
/// Every access a kernel can make — global/constant/texture memory, staged
/// atomics, cooperative staging, cost self-instrumentation, the telemetry
/// port, RNG state marshalling — goes through this trait, so a kernel body
/// is executable by any backend that implements it:
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
    /// Blocks per grid (`gridDim.x`).
    fn grid_dim(&self) -> usize;
    /// The `i`-th kernel argument.
    fn arg_buf(&self, i: usize) -> ErasedBuf;

    /// Whether a fault-injection plan is installed for this launch. Kernels
    /// that derive memory indices from *data* (not thread ids) use this to
    /// turn on defensive validation of values read from global memory —
    /// modeling resilient device code — without perturbing the clean path's
    /// cost model. Always `false` on the native backend.
    fn fault_injection_active(&self) -> bool;

    /// Read one element from global memory.
    fn read<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize) -> T;
    /// Write one element to global memory.
    fn write<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize, value: T);
    /// Read one element through the **texture path** (read-only, spatially
    /// cached). Semantically identical to [`read`](Self::read); must only be
    /// used for data no kernel writes during the launch.
    fn read_texture<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize) -> T;
    /// Bulk texture-path read (one [`read_texture`](Self::read_texture) per
    /// element).
    fn read_texture_slice_into<T: DeviceValue>(
        &mut self,
        buf: impl AsBuf<T>,
        start: usize,
        dst: &mut [T],
    );
    /// Read from constant memory (broadcast-cached).
    fn read_const<T: DeviceValue>(&mut self, cb: ConstBuf<T>, idx: usize) -> T;
    /// `atomicMin` on a signed 64-bit global location. Staged per block and
    /// merged in block-index order when the launch completes (see
    /// [`AtomicStage`]): the updated value is visible to *subsequent
    /// launches*, and the returned "previous value" is block-local.
    fn atomic_min_i64(&mut self, buf: impl AsBuf<i64>, idx: usize, value: i64) -> i64;
    /// `atomicAdd` on a signed 64-bit global location. Same staging
    /// semantics as [`atomic_min_i64`](Self::atomic_min_i64).
    fn atomic_add_i64(&mut self, buf: impl AsBuf<i64>, idx: usize, value: i64) -> i64;
    /// Bulk read `dst.len()` consecutive elements starting at `start`.
    fn read_slice_into<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, start: usize, dst: &mut [T]);
    /// Bulk write `src.len()` consecutive elements starting at `start`.
    fn write_slice<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, start: usize, src: &[T]);
    /// Device-to-device row copy (`memcpy` within global memory) with
    /// overlap-aware memmove semantics.
    fn copy_row<T: DeviceValue>(
        &mut self,
        src: impl AsBuf<T>,
        src_start: usize,
        dst: impl AsBuf<T>,
        dst_start: usize,
        count: usize,
    );
    /// Uncharged bulk load used for **cooperative** staging: one thread does
    /// the physical copy while *every* participating thread charges its own
    /// share via [`charge_global`](Self::charge_global)/
    /// [`charge_shared`](Self::charge_shared).
    fn cooperative_read<T: DeviceValue>(
        &mut self,
        buf: impl AsBuf<T>,
        start: usize,
        dst: &mut [T],
    );

    /// Borrow `len` elements of a global buffer from `start` **without
    /// copying**, as the storage words themselves ([`WordValue::Word`]:
    /// `u64` for job-id rows, `i64` for problem data), when the backend can
    /// expose them. The simulator answers `None`: every simulated access
    /// must be charged, race-tracked and fault-filtered, so callers fall
    /// back to [`read_slice_into`](Self::read_slice_into). The native
    /// backend returns a direct view, letting hot kernels skip staging data
    /// they only read. Like the texture path, a window may only cover data
    /// **no thread writes during the launch**.
    #[inline]
    fn global_window<T: WordValue>(
        &self,
        _buf: impl AsBuf<T>,
        _start: usize,
        _len: usize,
    ) -> Option<&[T::Word]> {
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
    /// Charge `n` shared-memory bank conflicts. No-op outside the simulator.
    fn charge_bank_conflicts(&mut self, n: u64);

    /// Read one element through the **instrumentation port**: no cost-model
    /// charge, no fault-stream draw, no race tracking. Reserved for
    /// telemetry buffers (see [`crate::telemetry`]) that must observe a run
    /// without perturbing its modeled time, fault decision streams, or RNG
    /// draw order.
    fn telemetry_read<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize) -> T;
    /// Write one element through the **instrumentation port** (uncharged,
    /// fault-invisible, untracked).
    fn telemetry_write<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize, value: T);

    /// Global linear thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    #[inline]
    fn global_id(&self) -> usize {
        self.block_idx() * self.block_dim() + self.thread_idx()
    }

    /// Total threads in the launch.
    #[inline]
    fn total_threads(&self) -> usize {
        self.grid_dim() * self.block_dim()
    }

    /// Load this thread's XORWOW state from a device-resident state array
    /// (3 words per stream, like a `curandState*` argument).
    fn load_rng(&mut self, states: impl AsBuf<u64>, slot: usize) -> XorWow {
        let (id, len) = states.id_len();
        let e = ErasedBuf { id, len };
        let words = [
            self.read::<u64>(e, slot * 3),
            self.read::<u64>(e, slot * 3 + 1),
            self.read::<u64>(e, slot * 3 + 2),
        ];
        XorWow::unpack(words)
    }

    /// Store this thread's XORWOW state back to the device array.
    fn store_rng(&mut self, states: impl AsBuf<u64>, slot: usize, rng: &XorWow) {
        let (id, len) = states.id_len();
        let e = ErasedBuf { id, len };
        let words = rng.pack();
        self.write::<u64>(e, slot * 3, words[0]);
        self.write::<u64>(e, slot * 3 + 1, words[1]);
        self.write::<u64>(e, slot * 3 + 2, words[2]);
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

/// Raw view of one global buffer: base pointer + element count.
#[derive(Clone, Copy)]
struct BufSlice {
    ptr: *mut u64,
    len: usize,
}

/// A launch-scoped view of device memory that many host threads can access
/// at once. Words are loaded/stored through `AtomicU64` with relaxed
/// ordering, so even a kernel with a (simulated) data race is defined
/// behavior on the host — it produces garbage values, never UB. Constant
/// memory is read-only during a launch and needs no atomicity.
pub(crate) struct MemView<'a> {
    global: Vec<BufSlice>,
    constant: &'a [Vec<u64>],
}

// SAFETY: all global-word access goes through atomic loads/stores (see
// `load`/`store`); the constant regions are shared read-only. The pointers
// stay valid for the view's lifetime because `new` takes `&mut MemoryPool`,
// which prevents any reallocation of the underlying vectors while the view
// is alive.
unsafe impl Sync for MemView<'_> {}

impl<'a> MemView<'a> {
    pub(crate) fn new(pool: &'a mut MemoryPool) -> MemView<'a> {
        let MemoryPool { global, constant, .. } = pool;
        let global =
            global.iter_mut().map(|b| BufSlice { ptr: b.as_mut_ptr(), len: b.len() }).collect();
        MemView { global, constant }
    }

    #[inline]
    fn word(&self, buf: usize, idx: usize) -> &AtomicU64 {
        let b = &self.global[buf];
        assert!(idx < b.len, "global memory access out of bounds: buffer {buf} has {} elements, index {idx}", b.len);
        // SAFETY: in-bounds (asserted), aligned (`Vec<u64>` storage), and
        // `u64`/`AtomicU64` share layout; atomicity makes concurrent access
        // defined.
        unsafe { &*(b.ptr.add(idx) as *const AtomicU64) }
    }

    #[inline]
    pub(crate) fn load(&self, buf: usize, idx: usize) -> u64 {
        self.word(buf, idx).load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn store(&self, buf: usize, idx: usize, bits: u64) {
        self.word(buf, idx).store(bits, Ordering::Relaxed)
    }

    /// Raw pointer to a bounds-checked window of global words — the native
    /// backend's vectorizable bulk path (atomic loads cannot auto-vectorize).
    ///
    /// Reading or writing through the pointer while another host thread
    /// touches the same *words* is a data race in the Rust sense. The
    /// native backend only accepts kernels whose cross-backend parity runs
    /// clean under the simulator's race detector (races are a sim-detected,
    /// sim-only concern), and simulated threads own disjoint rows by
    /// construction, so the plain accesses never overlap a concurrent
    /// writer in practice.
    #[inline]
    pub(crate) fn words_ptr(&self, buf: usize, start: usize, len: usize) -> *mut u64 {
        let b = &self.global[buf];
        assert!(
            start.checked_add(len).is_some_and(|end| end <= b.len),
            "global memory slice out of bounds: buffer {buf} has {} elements, range {start}..+{len}",
            b.len
        );
        // SAFETY: in-bounds (asserted) and aligned (`Vec<u64>` storage).
        unsafe { b.ptr.add(start) }
    }

    #[inline]
    pub(crate) fn const_word(&self, region: usize, idx: usize) -> u64 {
        self.constant[region][idx]
    }
}

/// The two atomic ops the engine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AtomicOp {
    Min,
    Add,
}

#[derive(Debug)]
struct StagedAtomic {
    buf: usize,
    idx: usize,
    op: AtomicOp,
    /// Global value at the block's first touch of this location.
    snapshot: i64,
    /// Block-local accumulated value (min over, or snapshot + deltas).
    value: i64,
}

/// Per-block atomic accumulator. Atomics do not write global memory during
/// block execution; each block accumulates into its own stage and the
/// engine merges the stages **in block-index order** after all blocks have
/// run ([`AtomicStage::apply`]). The ops the engine models (min, add) are
/// associative and commutative, so the merged result equals the serial
/// engine's — and the fixed merge order makes it deterministic by
/// construction. Consequence (same as real CUDA): a launch must not read a
/// location another block updates atomically; its post-launch value is only
/// visible to the *next* launch.
#[derive(Debug, Default)]
pub(crate) struct AtomicStage {
    entries: Vec<StagedAtomic>,
}

impl AtomicStage {
    /// Returns the block-local previous value (the global snapshot on first
    /// touch). Every kernel in this repo discards it; it is *not* the
    /// serial engine's cross-block old value.
    pub(crate) fn update(
        &mut self,
        mem: &MemView<'_>,
        buf: usize,
        idx: usize,
        op: AtomicOp,
        v: i64,
    ) -> i64 {
        if let Some(e) =
            self.entries.iter_mut().find(|e| e.buf == buf && e.idx == idx && e.op == op)
        {
            let old = e.value;
            e.value = match op {
                AtomicOp::Min => e.value.min(v),
                AtomicOp::Add => e.value + v,
            };
            return old;
        }
        let snapshot = i64::from_bits(mem.load(buf, idx));
        let value = match op {
            AtomicOp::Min => snapshot.min(v),
            AtomicOp::Add => snapshot + v,
        };
        self.entries.push(StagedAtomic { buf, idx, op, snapshot, value });
        snapshot
    }

    /// Fold this block's accumulators into global memory (called in
    /// block-index order).
    pub(crate) fn apply(self, pool: &mut MemoryPool) {
        for e in self.entries {
            let cur = i64::from_bits(pool.global[e.buf][e.idx]);
            let merged = match e.op {
                // `value` already includes the snapshot, and min is
                // idempotent: min(cur, value) folds this block's minimum in.
                AtomicOp::Min => cur.min(e.value),
                // Adds fold in this block's *delta* so every block's
                // contribution counts exactly once.
                AtomicOp::Add => cur + (e.value - e.snapshot),
            };
            pool.global[e.buf][e.idx] = merged.to_bits();
        }
    }
}

/// Everything one block's execution produced, merged by the engine in
/// block-index order.
struct BlockOutcome {
    /// Lockstep warp costs (lane-max folded).
    warps: Vec<CostCounter>,
    /// Sum of the block's raw per-thread costs.
    total: CostCounter,
    /// Staged atomic updates.
    atomics: AtomicStage,
    /// Bit flips injected into this block's reads.
    bit_flips: u64,
}

/// Execute one block to completion (all phases, barrier semantics) and
/// return its outcome. Self-contained: writable state is either
/// block-local (shared memory, thread states, costs, atomic stage, fault
/// streams) or reached through the concurrency-safe [`MemView`], so any
/// number of blocks may run on distinct host threads simultaneously.
#[allow(clippy::too_many_arguments)]
fn run_block<K: Kernel>(
    kernel: &K,
    block_idx: usize,
    block_dim: usize,
    grid_dim: usize,
    phases: usize,
    args: &[ErasedBuf],
    mem: &MemView<'_>,
    warp_size: usize,
    read_cfg: Option<ReadFaultCfg>,
    mut race: Option<&mut RaceTracker>,
) -> BlockOutcome {
    let mut shared = kernel.make_shared(block_dim);
    let mut states: Vec<K::ThreadState> =
        (0..block_dim).map(|_| K::ThreadState::default()).collect();
    let mut costs = vec![CostCounter::default(); block_dim];
    let mut stage = AtomicStage::default();
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
                grid_dim,
                phase,
                args,
                mem,
                cost: &mut costs[thread_idx],
                stage: &mut stage,
                race: race.as_deref_mut(),
                fault: fault_streams[thread_idx].as_mut(),
            };
            kernel.phase(phase, &mut ctx, &mut shared, &mut states[thread_idx]);
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
    BlockOutcome { warps, total, atomics: stage, bit_flips }
}

/// Per-thread execution context handed to [`Kernel::phase`].
pub struct ThreadCtx<'a> {
    /// Thread index within the block (`threadIdx.x` for linear blocks).
    pub thread_idx: usize,
    /// Block index within the grid (`blockIdx.x`).
    pub block_idx: usize,
    /// Threads per block (`blockDim.x`).
    pub block_dim: usize,
    /// Blocks per grid (`gridDim.x`).
    pub grid_dim: usize,
    phase: usize,
    args: &'a [ErasedBuf],
    mem: &'a MemView<'a>,
    /// This thread's cost counters (kernels may charge extra work through
    /// the `charge_*` helpers).
    pub cost: &'a mut CostCounter,
    stage: &'a mut AtomicStage,
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

    #[inline]
    fn check_bounds(&self, id: usize, len: usize, idx: usize) {
        assert!(
            idx < len,
            "global memory access out of bounds: buffer {id} has {len} elements, index {idx}"
        );
    }

    /// Pass a loaded word through the fault layer (possibly flipping a bit
    /// of its low `width_bits`).
    #[inline]
    fn observe_read_bits(&mut self, bits: u64, width_bits: u32) -> u64 {
        match self.fault.as_deref_mut() {
            Some(f) => f.observe_read(bits, width_bits),
            None => bits,
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
    fn grid_dim(&self) -> usize {
        self.grid_dim
    }

    fn arg_buf(&self, i: usize) -> ErasedBuf {
        self.args[i]
    }

    #[inline]
    fn fault_injection_active(&self) -> bool {
        self.fault.is_some()
    }

    /// Read one element from global memory (counts one transaction).
    #[inline]
    fn read<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize) -> T {
        let (id, len) = buf.id_len();
        self.check_bounds(id, len, idx);
        self.cost.global_transactions += 1;
        self.cost.alu += 1;
        let who = self.who();
        if let Some(race) = self.race.as_deref_mut() {
            race.on_read(id, idx, who);
        }
        let bits = self.mem.load(id, idx);
        let bits = self.observe_read_bits(bits, 8 * std::mem::size_of::<T>() as u32);
        T::from_bits(bits)
    }

    /// Write one element to global memory (counts one transaction).
    #[inline]
    fn write<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize, value: T) {
        let (id, len) = buf.id_len();
        self.check_bounds(id, len, idx);
        self.cost.global_transactions += 1;
        self.cost.alu += 1;
        let who = self.who();
        if let Some(race) = self.race.as_deref_mut() {
            race.on_write(id, idx, who);
        }
        self.mem.store(id, idx, value.to_bits());
    }

    /// Read one element through the **texture path** (read-only, spatially
    /// cached — the paper's conclusion proposes this for future work). The
    /// memory model amortizes
    /// [`crate::cost::TEXTURE_READS_PER_TRANSACTION`] texture reads per
    /// global transaction. Semantically identical to [`read`](Self::read);
    /// must only be used for data no kernel writes during the launch (race
    /// detection still checks this).
    #[inline]
    fn read_texture<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize) -> T {
        let (id, len) = buf.id_len();
        self.check_bounds(id, len, idx);
        self.cost.texture_reads += 1;
        self.cost.alu += 1;
        let who = self.who();
        if let Some(race) = self.race.as_deref_mut() {
            race.on_read(id, idx, who);
        }
        let bits = self.mem.load(id, idx);
        let bits = self.observe_read_bits(bits, 8 * std::mem::size_of::<T>() as u32);
        T::from_bits(bits)
    }

    /// Bulk texture-path read (one [`read_texture`](Self::read_texture) per
    /// element).
    fn read_texture_slice_into<T: DeviceValue>(
        &mut self,
        buf: impl AsBuf<T>,
        start: usize,
        dst: &mut [T],
    ) {
        let (id, len) = buf.id_len();
        assert!(
            start + dst.len() <= len,
            "texture slice out of bounds: buffer {id} has {len} elements"
        );
        self.cost.texture_reads += dst.len() as u64;
        self.cost.alu += dst.len() as u64;
        if self.race.is_some() {
            let who = self.who();
            let race = self.race.as_deref_mut().expect("checked above");
            for i in 0..dst.len() {
                race.on_read(id, start + i, who);
            }
        }
        let width = 8 * std::mem::size_of::<T>() as u32;
        match self.fault.as_deref_mut() {
            Some(f) => {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = T::from_bits(f.observe_read(self.mem.load(id, start + i), width));
                }
            }
            None => {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = T::from_bits(self.mem.load(id, start + i));
                }
            }
        }
    }

    /// Read from constant memory (broadcast-cached: ALU cost only).
    #[inline]
    fn read_const<T: DeviceValue>(&mut self, cb: ConstBuf<T>, idx: usize) -> T {
        assert!(
            idx < cb.len,
            "constant memory access out of bounds: region {} has {} elements, index {idx}",
            cb.id,
            cb.len
        );
        self.cost.alu += 1;
        T::from_bits(self.mem.const_word(cb.id, idx))
    }

    /// `atomicMin` on a signed 64-bit global location. Atomics never race
    /// (they serialize at L2) but pay [`DeviceSpec::cpi_atomic`]. Staged
    /// per block and merged in block-index order when the launch completes
    /// (see [`AtomicStage`]): the updated value is visible to *subsequent
    /// launches*, and the returned "previous value" is block-local.
    fn atomic_min_i64(&mut self, buf: impl AsBuf<i64>, idx: usize, value: i64) -> i64 {
        let (id, len) = buf.id_len();
        self.check_bounds(id, len, idx);
        self.cost.atomics += 1;
        self.stage.update(self.mem, id, idx, AtomicOp::Min, value)
    }

    /// `atomicAdd` on a signed 64-bit global location. Same staging
    /// semantics as [`atomic_min_i64`](Self::atomic_min_i64).
    fn atomic_add_i64(&mut self, buf: impl AsBuf<i64>, idx: usize, value: i64) -> i64 {
        let (id, len) = buf.id_len();
        self.check_bounds(id, len, idx);
        self.cost.atomics += 1;
        self.stage.update(self.mem, id, idx, AtomicOp::Add, value)
    }

    /// Bulk read `dst.len()` consecutive elements starting at `start`
    /// (charges one transaction per element, like the per-element
    /// [`read`](Self::read) — per-thread rows are strided across threads, so
    /// accesses do not coalesce; see the crate docs).
    fn read_slice_into<T: DeviceValue>(
        &mut self,
        buf: impl AsBuf<T>,
        start: usize,
        dst: &mut [T],
    ) {
        let (id, len) = buf.id_len();
        assert!(
            start + dst.len() <= len,
            "global memory slice out of bounds: buffer {id} has {len} elements, \
             range {start}..{}",
            start + dst.len()
        );
        self.cost.global_transactions += dst.len() as u64;
        self.cost.alu += dst.len() as u64;
        if self.race.is_some() {
            let who = self.who();
            let race = self.race.as_deref_mut().expect("checked above");
            for i in 0..dst.len() {
                race.on_read(id, start + i, who);
            }
        }
        let width = 8 * std::mem::size_of::<T>() as u32;
        match self.fault.as_deref_mut() {
            Some(f) => {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = T::from_bits(f.observe_read(self.mem.load(id, start + i), width));
                }
            }
            None => {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = T::from_bits(self.mem.load(id, start + i));
                }
            }
        }
    }

    /// Bulk write `src.len()` consecutive elements starting at `start`
    /// (charges one transaction per element).
    fn write_slice<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, start: usize, src: &[T]) {
        let (id, len) = buf.id_len();
        assert!(
            start + src.len() <= len,
            "global memory slice out of bounds: buffer {id} has {len} elements, \
             range {start}..{}",
            start + src.len()
        );
        self.cost.global_transactions += src.len() as u64;
        self.cost.alu += src.len() as u64;
        if self.race.is_some() {
            let who = self.who();
            let race = self.race.as_deref_mut().expect("checked above");
            for i in 0..src.len() {
                race.on_write(id, start + i, who);
            }
        }
        for (i, &v) in src.iter().enumerate() {
            self.mem.store(id, start + i, v.to_bits());
        }
    }

    /// Device-to-device row copy (`memcpy` within global memory); charges a
    /// read and a write transaction per element.
    fn copy_row<T: DeviceValue>(
        &mut self,
        src: impl AsBuf<T>,
        src_start: usize,
        dst: impl AsBuf<T>,
        dst_start: usize,
        count: usize,
    ) {
        let (sid, slen) = src.id_len();
        let (did, dlen) = dst.id_len();
        assert!(src_start + count <= slen, "copy_row source range out of bounds");
        assert!(dst_start + count <= dlen, "copy_row destination range out of bounds");
        self.cost.global_transactions += 2 * count as u64;
        self.cost.alu += count as u64;
        if self.race.is_some() {
            let who = self.who();
            let race = self.race.as_deref_mut().expect("checked above");
            for i in 0..count {
                race.on_read(sid, src_start + i, who);
                race.on_write(did, dst_start + i, who);
            }
        }
        // Overlap-aware element loop (memmove semantics without a staging
        // allocation): same buffer with the destination ahead of the source
        // must copy back-to-front.
        if sid == did && dst_start > src_start {
            for i in (0..count).rev() {
                self.mem.store(did, dst_start + i, self.mem.load(sid, src_start + i));
            }
        } else {
            for i in 0..count {
                self.mem.store(did, dst_start + i, self.mem.load(sid, src_start + i));
            }
        }
    }

    /// Uncharged bulk load used for **cooperative** staging: one thread does
    /// the physical copy while *every* participating thread charges its own
    /// share via [`charge_global`](Self::charge_global)/
    /// [`charge_shared`](Self::charge_shared). Race detection still sees the
    /// reads.
    fn cooperative_read<T: DeviceValue>(
        &mut self,
        buf: impl AsBuf<T>,
        start: usize,
        dst: &mut [T],
    ) {
        let (id, len) = buf.id_len();
        assert!(
            start + dst.len() <= len,
            "cooperative read out of bounds: buffer {id} has {len} elements"
        );
        if self.race.is_some() {
            let who = self.who();
            let race = self.race.as_deref_mut().expect("checked above");
            for i in 0..dst.len() {
                race.on_read(id, start + i, who);
            }
        }
        let width = 8 * std::mem::size_of::<T>() as u32;
        match self.fault.as_deref_mut() {
            Some(f) => {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = T::from_bits(f.observe_read(self.mem.load(id, start + i), width));
                }
            }
            None => {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = T::from_bits(self.mem.load(id, start + i));
                }
            }
        }
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

    /// Charge `n` shared-memory bank conflicts.
    #[inline]
    fn charge_bank_conflicts(&mut self, n: u64) {
        self.cost.bank_conflicts += n;
    }

    /// Read one element through the **instrumentation port**: no cost-model
    /// charge, no fault-stream draw, no race tracking. Reserved for
    /// telemetry buffers (see [`crate::telemetry`]) that must observe a run
    /// without perturbing its modeled time, fault decision streams, or RNG
    /// draw order. Never use this for algorithm state: it models an
    /// out-of-band debug channel, not device memory traffic.
    #[inline]
    fn telemetry_read<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize) -> T {
        let (id, len) = buf.id_len();
        self.check_bounds(id, len, idx);
        T::from_bits(self.mem.load(id, idx))
    }

    /// Write one element through the **instrumentation port** (uncharged,
    /// fault-invisible, untracked — see
    /// [`telemetry_read`](Self::telemetry_read)).
    #[inline]
    fn telemetry_write<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize, value: T) {
        let (id, len) = buf.id_len();
        self.check_bounds(id, len, idx);
        self.mem.store(id, idx, value.to_bits());
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

/// One simulated GPU: device spec, memory, profiler, block-dispatch pool.
#[derive(Debug)]
pub struct Gpu {
    spec: DeviceSpec,
    pool: MemoryPool,
    profiler: Profiler,
    race_detection: bool,
    fault: Option<FaultState>,
    parallelism: SimParallelism,
    /// Lazily built block-execution pool (rebuilt when the resolved thread
    /// count changes).
    workers: Option<WorkerPool>,
}

impl Gpu {
    /// Bring up a device. Host-side block parallelism is taken from
    /// [`DeviceSpec::parallelism`] (override with
    /// [`set_parallelism`](Self::set_parallelism)).
    pub fn new(spec: DeviceSpec) -> Self {
        let parallelism = spec.parallelism;
        Gpu {
            spec,
            pool: MemoryPool::default(),
            profiler: Profiler::new(),
            race_detection: false,
            fault: None,
            parallelism,
            workers: None,
        }
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Set the host-side block parallelism for subsequent launches. A pure
    /// wall-clock knob: results, modeled timing, fault streams, metrics and
    /// traces are byte-identical at every setting.
    pub fn set_parallelism(&mut self, parallelism: SimParallelism) {
        self.parallelism = parallelism;
    }

    /// The configured host-side block parallelism.
    pub fn parallelism(&self) -> SimParallelism {
        self.parallelism
    }

    fn ensure_workers(&mut self, threads: usize) {
        if self.workers.as_ref().map(|w| w.threads()) != Some(threads) {
            self.workers = Some(WorkerPool::new(threads));
        }
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
        Buf::new(self.pool.alloc(len), len)
    }

    /// Copy host data into a device buffer (`cudaMemcpyHostToDevice`),
    /// recording the modeled transfer time.
    ///
    /// # Panics
    /// Panics if `data.len() != buf.len()`.
    pub fn h2d<T: DeviceValue>(&mut self, buf: Buf<T>, data: &[T]) {
        assert_eq!(data.len(), buf.len, "h2d length mismatch");
        for (slot, v) in self.pool.global[buf.id].iter_mut().zip(data) {
            *slot = v.to_bits();
        }
        let bytes = std::mem::size_of_val(data);
        self.profiler.push(TimelineEvent::Transfer {
            dir: TransferDir::HostToDevice,
            bytes,
            seconds: self.spec.transfer_time(bytes),
        });
    }

    /// Copy a device buffer back to the host (`cudaMemcpyDeviceToHost`),
    /// recording the modeled transfer time.
    pub fn d2h<T: DeviceValue>(&mut self, buf: Buf<T>) -> Vec<T> {
        let out: Vec<T> =
            self.pool.global[buf.id].iter().map(|&bits| T::from_bits(bits)).collect();
        let bytes = out.len() * std::mem::size_of::<T>();
        self.profiler.push(TimelineEvent::Transfer {
            dir: TransferDir::DeviceToHost,
            bytes,
            seconds: self.spec.transfer_time(bytes),
        });
        out
    }

    /// Copy a sub-range of a device buffer back to the host, recording the
    /// modeled transfer time for exactly those bytes (e.g. fetching only the
    /// winning thread's sequence row after the final reduction).
    pub fn d2h_range<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, len: usize) -> Vec<T> {
        assert!(start + len <= buf.len, "d2h_range out of bounds");
        let out: Vec<T> = self.pool.global[buf.id][start..start + len]
            .iter()
            .map(|&bits| T::from_bits(bits))
            .collect();
        let bytes = len * std::mem::size_of::<T>();
        self.profiler.push(TimelineEvent::Transfer {
            dir: TransferDir::DeviceToHost,
            bytes,
            seconds: self.spec.transfer_time(bytes),
        });
        out
    }

    /// Host-side peek at device memory **without** a modeled transfer (a
    /// debugging aid; real experiments must use [`d2h`](Self::d2h) so the
    /// timing includes the copy, as the paper's speed-ups do).
    pub fn peek<T: DeviceValue>(&self, buf: Buf<T>) -> Vec<T> {
        self.pool.global[buf.id].iter().map(|&bits| T::from_bits(bits)).collect()
    }

    /// Allocate and fill a constant-memory region.
    pub fn alloc_const<T: DeviceValue>(&mut self, data: &[T]) -> Result<ConstBuf<T>, LaunchError> {
        let requested = data.len() * 8;
        let available = self.spec.constant_mem_bytes.saturating_sub(self.pool.constant_bytes);
        if requested > available {
            return Err(LaunchError::ConstantMemoryExceeded { requested, available });
        }
        let words: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
        let id = self.pool.alloc_const(words);
        let bytes = std::mem::size_of_val(data);
        self.profiler.push(TimelineEvent::Transfer {
            dir: TransferDir::HostToDevice,
            bytes,
            seconds: self.spec.transfer_time(bytes),
        });
        Ok(ConstBuf::new(id, data.len()))
    }

    /// Launch a kernel.
    ///
    /// Blocks execute on the configured number of host threads (see
    /// [`SimParallelism`]; race detection forces serial in-line execution
    /// to keep its exact cross-block semantics); barrier semantics are
    /// exact (phase-structured); timing is produced by the analytic model
    /// in [`crate::cost`] and recorded in the profiler — identically at
    /// every thread count.
    pub fn launch<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        cfg: LaunchConfig,
        args: &[ErasedBuf],
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
        let pool_threads = self.parallelism.resolve().min(grid_dim.max(1));
        let dispatch_parallel = pool_threads > 1 && !self.race_detection;
        if dispatch_parallel {
            self.ensure_workers(pool_threads);
        }

        let mut race = self.race_detection.then(RaceTracker::default);
        let outcomes: Vec<BlockOutcome> = {
            let mem = MemView::new(&mut self.pool);
            if dispatch_parallel {
                let slots: Vec<Mutex<Option<BlockOutcome>>> =
                    (0..grid_dim).map(|_| Mutex::new(None)).collect();
                let mem = &mem;
                self.workers.as_ref().expect("ensured above").run(grid_dim, &|block_idx| {
                    let outcome = run_block(
                        kernel, block_idx, block_dim, grid_dim, phases, args, mem, warp_size,
                        read_cfg, None,
                    );
                    *slots[block_idx].lock().expect("block slot poisoned") = Some(outcome);
                });
                slots
                    .into_iter()
                    .map(|s| s.into_inner().expect("slot poisoned").expect("every block ran"))
                    .collect()
            } else {
                (0..grid_dim)
                    .map(|block_idx| {
                        run_block(
                            kernel, block_idx, block_dim, grid_dim, phases, args, &mem,
                            warp_size, read_cfg, race.as_mut(),
                        )
                    })
                    .collect()
            }
        };

        // Merge block outcomes in block-index order: cost totals, warp
        // costs, staged atomics, fault counters. This fixed order is what
        // makes the result independent of the host schedule.
        let mut per_block_warp_costs = Vec::with_capacity(grid_dim);
        let mut total_cost = CostCounter::default();
        let mut bit_flips = 0u64;
        for outcome in outcomes {
            total_cost.add(&outcome.total);
            bit_flips += outcome.bit_flips;
            per_block_warp_costs.push(outcome.warps);
            outcome.atomics.apply(&mut self.pool);
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

    /// Open a named span on the profiler timeline (e.g. one per SA
    /// generation). Spans carry no modeled time; they only annotate the
    /// timeline for trace rendering.
    pub fn span_begin(&mut self, name: impl Into<String>) {
        self.profiler.span_begin(name);
    }

    /// Open a named span carrying key/value metadata (e.g. the generation
    /// index and temperature of one SA generation), rendered into the trace
    /// sink's args.
    pub fn span_begin_args(&mut self, name: impl Into<String>, args: Vec<(String, String)>) {
        self.profiler.span_begin_args(name, args);
    }

    /// Close the innermost open span with this name.
    pub fn span_end(&mut self, name: impl Into<String>) {
        self.profiler.span_end(name);
    }

    /// Reset the profiler (start a new measurement window).
    pub fn reset_profiler(&mut self) {
        self.profiler.reset();
    }

    /// Total modeled device time so far (kernels + transfers), seconds.
    pub fn elapsed_modeled(&self) -> f64 {
        self.profiler.total_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles every element of its single argument.
    struct Double;
    impl Kernel for Double {
        type Shared = ();
        type ThreadState = ();
        fn name(&self) -> &str {
            "double"
        }
        fn make_shared(&self, _block: usize) {}
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
            let buf = ctx.arg_buf(0);
            let gid = ctx.global_id();
            if gid < buf.len() {
                let v: i64 = ctx.read(buf, gid);
                ctx.write(buf, gid, v * 2);
            }
        }
    }

    #[test]
    fn simple_kernel_runs() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(10);
        gpu.h2d(buf, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let stats = gpu.launch(&Double, LaunchConfig::cover(10, 4), &[buf.erased()]).unwrap();
        assert_eq!(gpu.d2h(buf), vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]);
        assert_eq!(stats.threads, 12); // 3 blocks × 4
        assert!(stats.timing.seconds > 0.0);
        assert!(stats.total_cost.global_transactions >= 20);
    }

    /// Phase 0 writes shared; phase 1 reads it — barrier semantics.
    struct BarrierSum;
    impl Kernel for BarrierSum {
        type Shared = Vec<i64>;
        type ThreadState = ();
        fn name(&self) -> &str {
            "barrier_sum"
        }
        fn make_shared(&self, block: usize) -> Vec<i64> {
            vec![0; block]
        }
        fn shared_mem_bytes(&self, block: usize) -> usize {
            block * 8
        }
        fn num_phases(&self) -> usize {
            2
        }
        fn phase<C: DeviceCtx>(&self, p: usize, ctx: &mut C, sh: &mut Vec<i64>, _t: &mut ()) {
            let buf = ctx.arg_buf(0);
            match p {
                0 => {
                    // Each thread stages its value; thread 0 reads *everyone's*
                    // value in phase 1, which is only safe past the barrier.
                    let v: i64 = ctx.read(buf, ctx.global_id());
                    sh[ctx.thread_idx()] = v;
                    ctx.charge_shared(1);
                }
                _ => {
                    if ctx.thread_idx() == 0 {
                        let sum: i64 = sh.iter().sum();
                        ctx.charge_shared(sh.len() as u64);
                        ctx.write(buf, ctx.block_idx() * ctx.block_dim(), sum);
                    }
                }
            }
        }
    }

    #[test]
    fn barrier_makes_staged_values_visible() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(4);
        gpu.h2d(buf, &[1, 2, 3, 4]);
        gpu.launch(&BarrierSum, LaunchConfig::linear(1, 4), &[buf.erased()]).unwrap();
        assert_eq!(gpu.d2h(buf)[0], 10);
    }

    /// All threads write location 0 — an obvious data race.
    struct Racy;
    impl Kernel for Racy {
        type Shared = ();
        type ThreadState = ();
        fn name(&self) -> &str {
            "racy"
        }
        fn make_shared(&self, _b: usize) {}
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
            let buf = ctx.arg_buf(0);
            let id = ctx.global_id() as i64;
            ctx.write(buf, 0, id);
        }
    }

    #[test]
    fn race_detection_catches_conflicting_writes() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let buf = gpu.alloc::<i64>(1);
        let err = gpu.launch(&Racy, LaunchConfig::linear(1, 4), &[buf.erased()]).unwrap_err();
        assert!(matches!(err, LaunchError::DataRace(_)), "{err}");
    }

    #[test]
    fn race_detection_allows_disjoint_writes() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let buf = gpu.alloc::<i64>(8);
        gpu.launch(&Double, LaunchConfig::linear(2, 4), &[buf.erased()]).unwrap();
    }

    /// Same-location atomic min from every thread — must not race and must
    /// produce the true minimum.
    struct AtomicMin;
    impl Kernel for AtomicMin {
        type Shared = ();
        type ThreadState = ();
        fn name(&self) -> &str {
            "atomic_min"
        }
        fn make_shared(&self, _b: usize) {}
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
            let values = ctx.arg_buf(0);
            let out = ctx.arg_buf(1);
            let v: i64 = ctx.read(values, ctx.global_id());
            ctx.atomic_min_i64(out, 0, v);
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
        let stats = gpu
            .launch(&AtomicMin, LaunchConfig::linear(2, 4), &[values.erased(), out.erased()])
            .unwrap();
        assert_eq!(gpu.d2h(out)[0], 1);
        assert_eq!(stats.total_cost.atomics, 8);
    }

    #[test]
    fn launch_rejects_oversized_block() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(1);
        let err =
            gpu.launch(&Double, LaunchConfig::linear(1, 2048), &[buf.erased()]).unwrap_err();
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
        assert!(gpu.elapsed_modeled() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        struct Oob;
        impl Kernel for Oob {
            type Shared = ();
            type ThreadState = ();
            fn name(&self) -> &str {
                "oob"
            }
            fn make_shared(&self, _b: usize) {}
            fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
                let buf = ctx.arg_buf(0);
                let _: i64 = ctx.read(buf, 99);
            }
        }
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let buf = gpu.alloc::<i64>(4);
        let _ = gpu.launch(&Oob, LaunchConfig::linear(1, 1), &[buf.erased()]);
    }

    /// Doubles with wrapping arithmetic: under bit-flip injection a read can
    /// return any i64, so the test kernel must tolerate extreme values
    /// (exactly the hardening real kernels need).
    struct WrappingDouble;
    impl Kernel for WrappingDouble {
        type Shared = ();
        type ThreadState = ();
        fn name(&self) -> &str {
            "wrapping_double"
        }
        fn make_shared(&self, _block: usize) {}
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
            let buf = ctx.arg_buf(0);
            let gid = ctx.global_id();
            if gid < buf.len() {
                let v: i64 = ctx.read(buf, gid);
                ctx.write(buf, gid, v.wrapping_mul(2));
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
            errors.push(
                gpu.launch(&WrappingDouble, LaunchConfig::linear(2, 4), &[buf.erased()]).err(),
            );
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
        let err = gpu.launch(&Double, LaunchConfig::linear(1, 4), &[buf.erased()]).unwrap_err();
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
        let err = gpu.launch(&Double, LaunchConfig::linear(1, 4), &[buf.erased()]).unwrap_err();
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
            match gpu.launch(&Double, LaunchConfig::linear(1, 4), &[buf.erased()]) {
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
            let e = gpu.launch(&Double, LaunchConfig::linear(1, 4), &[buf.erased()]).unwrap_err();
            assert!(matches!(e, LaunchError::DeviceLost { .. }));
        }
        assert_eq!(gpu.peek(buf), before, "launches on a dead device must not execute");
        assert_eq!(gpu.fault_stats().worker_crashes, 1);
        // Installing a fresh plan models standing up a fresh device.
        gpu.set_fault_plan(None);
        gpu.launch(&Double, LaunchConfig::linear(1, 4), &[buf.erased()]).unwrap();
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
        gpu.launch(&Double, LaunchConfig::linear(1, 4), &[buf.erased()]).unwrap();
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

        /// Copies src[gid] → out[gid] (read passes through the fault layer).
        struct CopyK;
        impl Kernel for CopyK {
            type Shared = ();
            type ThreadState = ();
            fn name(&self) -> &str {
                "copy"
            }
            fn make_shared(&self, _b: usize) {}
            fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
                let src = ctx.arg_buf(0);
                let dst = ctx.arg_buf(1);
                let gid = ctx.global_id();
                let v: i64 = ctx.read(src, gid);
                ctx.write(dst, gid, v);
            }
        }
        gpu.launch(&CopyK, LaunchConfig::linear(2, 32), &[buf.erased(), out.erased()]).unwrap();
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
        let err = gpu.launch(&Racy, LaunchConfig::linear(1, 4), &[buf.erased()]).unwrap_err();
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
        gpu.launch(&Double, LaunchConfig::linear(1, 4), &[buf.erased()]).unwrap();
        assert_eq!(gpu.d2h(buf), vec![2, 4, 6, 8]);
    }

    /// A faulted multi-launch campaign at a given parallelism: returns
    /// everything observable — memory, error sequence, fault stats, and the
    /// modeled clocks bit-for-bit.
    fn faulted_campaign_at(
        par: SimParallelism,
    ) -> (Vec<i64>, Vec<Option<LaunchError>>, FaultStats, u64, u64) {
        let mut spec = DeviceSpec::gt560m();
        spec.parallelism = par;
        let mut gpu = Gpu::new(spec);
        let buf = gpu.alloc::<i64>(256);
        let host: Vec<i64> = (0..256).collect();
        gpu.h2d(buf, &host);
        gpu.set_fault_plan(Some(FaultPlan::with_rates(21, 0.2, 0.05, 0.1)));
        let mut errors = Vec::new();
        for _ in 0..60 {
            errors.push(
                gpu.launch(&WrappingDouble, LaunchConfig::linear(8, 32), &[buf.erased()]).err(),
            );
        }
        let stats = gpu.fault_stats();
        let kernel_bits = gpu.profiler().kernel_seconds().to_bits();
        let clock_bits = gpu.elapsed_modeled().to_bits();
        (gpu.d2h(buf), errors, stats, kernel_bits, clock_bits)
    }

    #[test]
    fn faulted_campaign_is_byte_identical_at_every_thread_count() {
        let serial = faulted_campaign_at(SimParallelism::Serial);
        for k in [1usize, 2, 8] {
            let par = faulted_campaign_at(SimParallelism::Threads(k));
            assert_eq!(serial, par, "threads({k}) diverged from serial");
        }
        let auto = faulted_campaign_at(SimParallelism::Auto);
        assert_eq!(serial, auto, "auto diverged from serial");
    }

    /// Every thread folds into two cross-block accumulators: the global
    /// minimum of its value and a population count.
    struct MinAndCount;
    impl Kernel for MinAndCount {
        type Shared = ();
        type ThreadState = ();
        fn name(&self) -> &str {
            "min_and_count"
        }
        fn make_shared(&self, _b: usize) {}
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
            let values = ctx.arg_buf(0);
            let out = ctx.arg_buf(1);
            let v: i64 = ctx.read(values, ctx.global_id());
            ctx.atomic_min_i64(out, 0, v);
            ctx.atomic_add_i64(out, 1, 1);
        }
    }

    #[test]
    fn atomics_merge_exactly_across_parallel_blocks() {
        let mut spec = DeviceSpec::gt560m();
        spec.parallelism = SimParallelism::Threads(4);
        let mut gpu = Gpu::new(spec);
        let values = gpu.alloc::<i64>(128);
        let host: Vec<i64> = (0..128).map(|i| 1000 - 7 * i as i64).collect();
        gpu.h2d(values, &host);
        let out = gpu.alloc::<i64>(2);
        gpu.h2d(out, &[i64::MAX, 0]);
        let stats = gpu
            .launch(&MinAndCount, LaunchConfig::linear(4, 32), &[values.erased(), out.erased()])
            .unwrap();
        assert_eq!(gpu.d2h(out), vec![*host.iter().min().unwrap(), 128]);
        assert_eq!(stats.total_cost.atomics, 256);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics_propagate_from_worker_threads() {
        struct Oob;
        impl Kernel for Oob {
            type Shared = ();
            type ThreadState = ();
            fn name(&self) -> &str {
                "oob"
            }
            fn make_shared(&self, _b: usize) {}
            fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
                let buf = ctx.arg_buf(0);
                // Only the last block trips the bug, so the panic originates
                // on whichever worker drew it — not the host thread.
                if ctx.block_idx() == 3 {
                    let _: i64 = ctx.read(buf, 99);
                }
            }
        }
        let mut spec = DeviceSpec::gt560m();
        spec.parallelism = SimParallelism::Threads(4);
        let mut gpu = Gpu::new(spec);
        let buf = gpu.alloc::<i64>(4);
        let _ = gpu.launch(&Oob, LaunchConfig::linear(4, 8), &[buf.erased()]);
    }

    #[test]
    fn race_detection_falls_back_to_serial_and_still_fires() {
        let mut spec = DeviceSpec::gt560m();
        spec.parallelism = SimParallelism::Threads(8);
        let mut gpu = Gpu::new(spec);
        gpu.set_race_detection(true);
        let buf = gpu.alloc::<i64>(1);
        let err = gpu.launch(&Racy, LaunchConfig::linear(2, 4), &[buf.erased()]).unwrap_err();
        assert!(matches!(err, LaunchError::DataRace(_)), "{err}");
        // With detection off again, the same Gpu dispatches in parallel and
        // clean kernels still run.
        gpu.set_race_detection(false);
        let data = gpu.alloc::<i64>(8);
        gpu.h2d(data, &[1, 2, 3, 4, 5, 6, 7, 8]);
        gpu.launch(&Double, LaunchConfig::linear(2, 4), &[data.erased()]).unwrap();
        assert_eq!(gpu.d2h(data), vec![2, 4, 6, 8, 10, 12, 14, 16]);
    }

    #[test]
    fn parallelism_is_reconfigurable_between_launches() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        assert_eq!(gpu.parallelism(), SimParallelism::Serial);
        let buf = gpu.alloc::<i64>(8);
        gpu.h2d(buf, &[1, 2, 3, 4, 5, 6, 7, 8]);
        gpu.launch(&Double, LaunchConfig::linear(2, 4), &[buf.erased()]).unwrap();
        gpu.set_parallelism(SimParallelism::Threads(2));
        gpu.launch(&Double, LaunchConfig::linear(2, 4), &[buf.erased()]).unwrap();
        gpu.set_parallelism(SimParallelism::Threads(5));
        gpu.launch(&Double, LaunchConfig::linear(2, 4), &[buf.erased()]).unwrap();
        assert_eq!(gpu.d2h(buf), vec![8, 16, 24, 32, 40, 48, 56, 64]);
    }

    #[test]
    fn rng_state_survives_round_trip_through_device_memory() {
        struct RngStep;
        impl Kernel for RngStep {
            type Shared = ();
            type ThreadState = ();
            fn name(&self) -> &str {
                "rng_step"
            }
            fn make_shared(&self, _b: usize) {}
            fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
                let states = ctx.arg_buf(0);
                let out = ctx.arg_buf(1);
                let slot = ctx.global_id();
                let mut rng = ctx.load_rng(states, slot);
                let v = rng.next_u32() as i64;
                ctx.write(out, slot, v);
                ctx.store_rng(states, slot, &rng);
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
        gpu.launch(&RngStep, LaunchConfig::linear(1, 2), &[states.erased(), out.erased()])
            .unwrap();
        let first = gpu.d2h(out);
        gpu.launch(&RngStep, LaunchConfig::linear(1, 2), &[states.erased(), out.erased()])
            .unwrap();
        let second = gpu.d2h(out);
        // Host reference streams must match the device sequence.
        for t in 0..2 {
            let mut reference = XorWow::new(99, t as u64);
            assert_eq!(first[t], reference.next_u32() as i64);
            assert_eq!(second[t], reference.next_u32() as i64);
        }
    }
}
