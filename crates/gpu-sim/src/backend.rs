//! Execution backends: the simulator and the native host path behind one
//! trait (DESIGN.md §16).
//!
//! [`ExecBackend`] is the device surface the *pipelines* program against —
//! allocation, transfers, kernel launches, spans, fault plumbing — mirroring
//! how [`crate::engine::DeviceCtx`] is the surface the *kernels* program
//! against. Two implementations exist:
//!
//! * [`Gpu`] — the cuda-sim device: modeled clock, per-access cost
//!   accounting, fault injection, race detection, profiler timeline.
//! * [`NativeGpu`] — the native host backend: the same kernel bodies run
//!   directly on host threads through the PR-5 [`WorkerPool`], with **no**
//!   modeled clock, no per-access simulation, and no fault machinery on the
//!   hot path. This is the deployment path when you actually have cores.
//!
//! The contract between them is **byte-identity**: with the same inputs,
//! seeds and launch sequence, both backends leave bit-identical values in
//! device memory. That holds by construction because (a) kernels execute
//! the exact same `phase` code through [`DeviceCtx`], (b) XORWOW streams
//! are device-resident data, and (c) the native backend stages atomics per
//! block and merges them in block-index order through the *same*
//! [`AtomicStage`] type the simulator uses. What the native backend does
//! not produce: modeled seconds (all zero), a profiler timeline (empty),
//! fault injection and telemetry (sim-only; installing an active fault
//! plan panics, and the pipelines reject such requests before any launch).

use crate::device::DeviceSpec;
use crate::dispatch::{SimParallelism, WorkerPool};
use crate::engine::{
    AsBuf, AtomicOp, AtomicStage, DeviceCtx, Gpu, Kernel, LaunchError, MemView,
};
use crate::fault::{FaultPlan, FaultStats};
use crate::grid::LaunchConfig;
use crate::memory::{Buf, ConstBuf, DeviceValue, ErasedBuf, MemoryPool, WordValue};
use crate::profiler::TimelineEvent;
use crate::rng::XorWow;
use std::fmt;
use std::str::FromStr;
use std::sync::Mutex;

/// Which execution backend runs a pipeline's launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// cuda-sim: semantic fidelity, modeled time, fault injection,
    /// telemetry, race detection. The verification/replay/chaos path.
    #[default]
    Sim,
    /// Native host execution: same kernel bodies, raw wall-clock speed, no
    /// simulation machinery. The production path.
    Native,
}

impl Backend {
    /// Stable lowercase label (CLI values, metric label values).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(Backend::Sim),
            "native" => Ok(Backend::Native),
            other => Err(format!("unknown backend `{other}` (expected `sim` or `native`)")),
        }
    }
}

/// The device surface a *pipeline* (host-side driver) programs against,
/// implemented by both [`Gpu`] and [`NativeGpu`].
///
/// Methods that only make sense on the simulator — modeled seconds, the
/// profiler timeline, spans, fault statistics — have honest degenerate
/// behavior on the native backend (zeros, empties, no-ops) so generic
/// driver code needs no backend branches. Installing an *active* fault
/// plan on a backend that cannot honor it panics instead of silently
/// dropping it; callers route faulted work to [`Backend::Sim`] first.
pub trait ExecBackend {
    /// Construct a fresh backend for a device description. Generic pipeline
    /// attempts use this so each attempt starts from a clean device.
    fn from_spec(spec: DeviceSpec) -> Self
    where
        Self: Sized;

    /// Which backend this is.
    fn kind(&self) -> Backend;

    /// The device description (geometry limits still validate launches on
    /// the native backend).
    fn spec(&self) -> &DeviceSpec;

    /// Set host-side block parallelism for subsequent launches.
    fn set_parallelism(&mut self, parallelism: SimParallelism);

    /// Allocate a zero-initialized global buffer of `len` elements.
    fn alloc<T: DeviceValue>(&mut self, len: usize) -> Buf<T>;

    /// Allocate and fill a constant-memory region (both backends enforce
    /// the device's constant-memory limit identically).
    fn alloc_const<T: DeviceValue>(&mut self, data: &[T]) -> Result<ConstBuf<T>, LaunchError>;

    /// Copy host data into a device buffer.
    fn h2d<T: DeviceValue>(&mut self, buf: Buf<T>, data: &[T]);

    /// Copy a device buffer back to the host.
    fn d2h<T: DeviceValue>(&mut self, buf: Buf<T>) -> Vec<T>;

    /// Copy a sub-range of a device buffer back to the host.
    fn d2h_range<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, len: usize) -> Vec<T>;

    /// Host-side peek at device memory without a modeled transfer.
    fn peek<T: DeviceValue>(&self, buf: Buf<T>) -> Vec<T>;

    /// Launch a kernel. The simulator additionally records modeled timing
    /// and draws fault decisions; the native backend just runs the blocks.
    fn launch_kernel<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        cfg: LaunchConfig,
        args: &[ErasedBuf],
    ) -> Result<(), LaunchError>;

    /// Install (or clear, with `None`) a fault-injection plan.
    ///
    /// # Panics
    /// The native backend panics on an *active* plan — fault injection is
    /// sim-only and must be rejected upstream, never silently ignored.
    fn set_fault_plan(&mut self, plan: Option<FaultPlan>);

    /// Counters of injected faults (always zero on the native backend).
    fn fault_stats(&self) -> FaultStats;

    /// Open a named span with key/value metadata on the timeline (no-op on
    /// the native backend).
    fn span_begin_args(&mut self, name: &str, args: Vec<(String, String)>);

    /// Open a named span (no-op on the native backend).
    fn span_begin(&mut self, name: &str) {
        self.span_begin_args(name, Vec::new());
    }

    /// Close the innermost open span with this name (no-op on the native
    /// backend).
    fn span_end(&mut self, name: &str);

    /// Successful kernel launches so far. Identical across backends for a
    /// clean run — part of the parity contract.
    fn kernel_launches(&self) -> usize;

    /// Total modeled device seconds (kernels + transfers); `0.0` on the
    /// native backend, whose currency is wall-clock time.
    fn modeled_total_seconds(&self) -> f64;

    /// Modeled kernel-only seconds; `0.0` on the native backend.
    fn modeled_kernel_seconds(&self) -> f64;

    /// Modeled transfer-only seconds; `0.0` on the native backend.
    fn modeled_transfer_seconds(&self) -> f64;

    /// Human-readable profiler table (empty on the native backend).
    fn profiler_summary(&self) -> String;

    /// The timeline events recorded so far (empty on the native backend).
    fn timeline_events(&self) -> Vec<TimelineEvent>;
}

impl ExecBackend for Gpu {
    fn from_spec(spec: DeviceSpec) -> Self {
        Gpu::new(spec)
    }

    fn kind(&self) -> Backend {
        Backend::Sim
    }

    fn spec(&self) -> &DeviceSpec {
        Gpu::spec(self)
    }

    fn set_parallelism(&mut self, parallelism: SimParallelism) {
        Gpu::set_parallelism(self, parallelism);
    }

    fn alloc<T: DeviceValue>(&mut self, len: usize) -> Buf<T> {
        Gpu::alloc(self, len)
    }

    fn alloc_const<T: DeviceValue>(&mut self, data: &[T]) -> Result<ConstBuf<T>, LaunchError> {
        Gpu::alloc_const(self, data)
    }

    fn h2d<T: DeviceValue>(&mut self, buf: Buf<T>, data: &[T]) {
        Gpu::h2d(self, buf, data);
    }

    fn d2h<T: DeviceValue>(&mut self, buf: Buf<T>) -> Vec<T> {
        Gpu::d2h(self, buf)
    }

    fn d2h_range<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, len: usize) -> Vec<T> {
        Gpu::d2h_range(self, buf, start, len)
    }

    fn peek<T: DeviceValue>(&self, buf: Buf<T>) -> Vec<T> {
        Gpu::peek(self, buf)
    }

    fn launch_kernel<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        cfg: LaunchConfig,
        args: &[ErasedBuf],
    ) -> Result<(), LaunchError> {
        Gpu::launch(self, kernel, cfg, args).map(|_| ())
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        Gpu::set_fault_plan(self, plan);
    }

    fn fault_stats(&self) -> FaultStats {
        Gpu::fault_stats(self)
    }

    fn span_begin_args(&mut self, name: &str, args: Vec<(String, String)>) {
        Gpu::span_begin_args(self, name, args);
    }

    fn span_end(&mut self, name: &str) {
        Gpu::span_end(self, name);
    }

    fn kernel_launches(&self) -> usize {
        self.profiler().kernel_launches()
    }

    fn modeled_total_seconds(&self) -> f64 {
        self.profiler().total_seconds()
    }

    fn modeled_kernel_seconds(&self) -> f64 {
        self.profiler().kernel_seconds()
    }

    fn modeled_transfer_seconds(&self) -> f64 {
        self.profiler().transfer_seconds()
    }

    fn profiler_summary(&self) -> String {
        self.profiler().summary()
    }

    fn timeline_events(&self) -> Vec<TimelineEvent> {
        self.profiler().events().to_vec()
    }
}

/// The native host backend: one device's worth of memory plus a block
/// dispatch pool, and nothing else. See the module docs for the contract.
#[derive(Debug)]
pub struct NativeGpu {
    spec: DeviceSpec,
    pool: MemoryPool,
    parallelism: SimParallelism,
    workers: Option<WorkerPool>,
    launches: usize,
}

impl NativeGpu {
    /// Bring up a native device. Host-side block parallelism is taken from
    /// [`DeviceSpec::parallelism`], exactly like [`Gpu::new`].
    pub fn new(spec: DeviceSpec) -> Self {
        let parallelism = spec.parallelism;
        NativeGpu { spec, pool: MemoryPool::default(), parallelism, workers: None, launches: 0 }
    }

    fn ensure_workers(&mut self, threads: usize) {
        if self.workers.as_ref().map(|w| w.threads()) != Some(threads) {
            self.workers = Some(WorkerPool::new(threads));
        }
    }
}

/// Execute one block natively: same phase/barrier structure as the
/// simulator's `run_block`, minus costs, fault streams and race tracking.
fn native_run_block<K: Kernel>(
    kernel: &K,
    block_idx: usize,
    block_dim: usize,
    grid_dim: usize,
    phases: usize,
    args: &[ErasedBuf],
    mem: &MemView<'_>,
) -> AtomicStage {
    let mut shared = kernel.make_shared(block_dim);
    let mut states: Vec<K::ThreadState> =
        (0..block_dim).map(|_| K::ThreadState::default()).collect();
    let mut stage = AtomicStage::default();
    for phase in 0..phases {
        for (thread_idx, state) in states.iter_mut().enumerate() {
            let mut ctx =
                NativeCtx { thread_idx, block_idx, block_dim, grid_dim, args, mem, stage: &mut stage };
            kernel.phase(phase, &mut ctx, &mut shared, state);
        }
    }
    stage
}

impl ExecBackend for NativeGpu {
    fn from_spec(spec: DeviceSpec) -> Self {
        NativeGpu::new(spec)
    }

    fn kind(&self) -> Backend {
        Backend::Native
    }

    fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    fn set_parallelism(&mut self, parallelism: SimParallelism) {
        self.parallelism = parallelism;
    }

    fn alloc<T: DeviceValue>(&mut self, len: usize) -> Buf<T> {
        Buf::new(self.pool.alloc(len), len)
    }

    fn alloc_const<T: DeviceValue>(&mut self, data: &[T]) -> Result<ConstBuf<T>, LaunchError> {
        let requested = data.len() * 8;
        let available = self.spec.constant_mem_bytes.saturating_sub(self.pool.constant_bytes);
        if requested > available {
            return Err(LaunchError::ConstantMemoryExceeded { requested, available });
        }
        let words: Vec<u64> = data.iter().map(|v| v.to_bits()).collect();
        let id = self.pool.alloc_const(words);
        Ok(ConstBuf::new(id, data.len()))
    }

    fn h2d<T: DeviceValue>(&mut self, buf: Buf<T>, data: &[T]) {
        assert_eq!(data.len(), buf.len, "h2d length mismatch");
        for (slot, v) in self.pool.global[buf.id].iter_mut().zip(data) {
            *slot = v.to_bits();
        }
    }

    fn d2h<T: DeviceValue>(&mut self, buf: Buf<T>) -> Vec<T> {
        self.pool.global[buf.id].iter().map(|&bits| T::from_bits(bits)).collect()
    }

    fn d2h_range<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, len: usize) -> Vec<T> {
        assert!(start + len <= buf.len, "d2h_range out of bounds");
        self.pool.global[buf.id][start..start + len]
            .iter()
            .map(|&bits| T::from_bits(bits))
            .collect()
    }

    fn peek<T: DeviceValue>(&self, buf: Buf<T>) -> Vec<T> {
        self.pool.global[buf.id].iter().map(|&bits| T::from_bits(bits)).collect()
    }

    fn launch_kernel<K: Kernel + Sync>(
        &mut self,
        kernel: &K,
        cfg: LaunchConfig,
        args: &[ErasedBuf],
    ) -> Result<(), LaunchError> {
        let block_dim = cfg.block_size();
        let shared_bytes = kernel.shared_mem_bytes(block_dim);
        cfg.validate(&self.spec, shared_bytes).map_err(LaunchError::InvalidConfig)?;

        let grid_dim = cfg.num_blocks();
        let phases = kernel.num_phases().max(1);
        let pool_threads = self.parallelism.resolve().min(grid_dim.max(1));
        if pool_threads > 1 {
            self.ensure_workers(pool_threads);
        }

        // Stages are collected per block and applied in block-index order —
        // the same merge discipline as the simulator, through the same
        // `AtomicStage` type, which is what makes atomics byte-identical
        // across backends and host thread counts.
        let stages: Vec<AtomicStage> = {
            let mem = MemView::new(&mut self.pool);
            if pool_threads > 1 {
                let slots: Vec<Mutex<Option<AtomicStage>>> =
                    (0..grid_dim).map(|_| Mutex::new(None)).collect();
                let mem = &mem;
                self.workers.as_ref().expect("ensured above").run(grid_dim, &|block_idx| {
                    let stage = native_run_block(
                        kernel, block_idx, block_dim, grid_dim, phases, args, mem,
                    );
                    *slots[block_idx].lock().expect("block slot poisoned") = Some(stage);
                });
                slots
                    .into_iter()
                    .map(|s| s.into_inner().expect("slot poisoned").expect("every block ran"))
                    .collect()
            } else {
                (0..grid_dim)
                    .map(|block_idx| {
                        native_run_block(kernel, block_idx, block_dim, grid_dim, phases, args, &mem)
                    })
                    .collect()
            }
        };
        for stage in stages {
            stage.apply(&mut self.pool);
        }
        self.launches += 1;
        Ok(())
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        assert!(
            plan.filter(FaultPlan::is_active).is_none(),
            "fault injection is sim-only: route fault-plan work to Backend::Sim"
        );
    }

    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    fn span_begin_args(&mut self, _name: &str, _args: Vec<(String, String)>) {}

    fn span_end(&mut self, _name: &str) {}

    fn kernel_launches(&self) -> usize {
        self.launches
    }

    fn modeled_total_seconds(&self) -> f64 {
        0.0
    }

    fn modeled_kernel_seconds(&self) -> f64 {
        0.0
    }

    fn modeled_transfer_seconds(&self) -> f64 {
        0.0
    }

    fn profiler_summary(&self) -> String {
        String::new()
    }

    fn timeline_events(&self) -> Vec<TimelineEvent> {
        Vec::new()
    }
}

/// The native implementation of the device surface: plain bounds-checked
/// relaxed-atomic memory access, staged atomics, and nothing else. The
/// `charge_*` hooks vanish, fault injection is never active, and the
/// telemetry port degenerates to a plain access.
pub struct NativeCtx<'a> {
    thread_idx: usize,
    block_idx: usize,
    block_dim: usize,
    grid_dim: usize,
    args: &'a [ErasedBuf],
    mem: &'a MemView<'a>,
    stage: &'a mut AtomicStage,
}

impl NativeCtx<'_> {
    #[inline]
    fn check_bounds(&self, id: usize, len: usize, idx: usize) {
        assert!(
            idx < len,
            "global memory access out of bounds: buffer {id} has {len} elements, index {idx}"
        );
    }
}

impl DeviceCtx for NativeCtx<'_> {
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
        false
    }

    #[inline]
    fn read<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize) -> T {
        let (id, _) = buf.id_len();
        T::from_bits(self.mem.load(id, idx))
    }

    #[inline]
    fn write<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize, value: T) {
        let (id, _) = buf.id_len();
        self.mem.store(id, idx, value.to_bits());
    }

    #[inline]
    fn read_texture<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize) -> T {
        let (id, _) = buf.id_len();
        T::from_bits(self.mem.load(id, idx))
    }

    fn read_texture_slice_into<T: DeviceValue>(
        &mut self,
        buf: impl AsBuf<T>,
        start: usize,
        dst: &mut [T],
    ) {
        let (id, _) = buf.id_len();
        let words = self.mem.words_ptr(id, start, dst.len());
        // SAFETY: texture reads are defined only for data no kernel writes
        // during the launch, so no concurrent writer exists.
        let words = unsafe { std::slice::from_raw_parts(words, dst.len()) };
        for (d, &w) in dst.iter_mut().zip(words) {
            *d = T::from_bits(w);
        }
    }

    #[inline]
    fn read_const<T: DeviceValue>(&mut self, cb: ConstBuf<T>, idx: usize) -> T {
        assert!(
            idx < cb.len,
            "constant memory access out of bounds: region {} has {} elements, index {idx}",
            cb.id,
            cb.len
        );
        T::from_bits(self.mem.const_word(cb.id, idx))
    }

    fn atomic_min_i64(&mut self, buf: impl AsBuf<i64>, idx: usize, value: i64) -> i64 {
        let (id, len) = buf.id_len();
        self.check_bounds(id, len, idx);
        self.stage.update(self.mem, id, idx, AtomicOp::Min, value)
    }

    fn atomic_add_i64(&mut self, buf: impl AsBuf<i64>, idx: usize, value: i64) -> i64 {
        let (id, len) = buf.id_len();
        self.check_bounds(id, len, idx);
        self.stage.update(self.mem, id, idx, AtomicOp::Add, value)
    }

    fn read_slice_into<T: DeviceValue>(
        &mut self,
        buf: impl AsBuf<T>,
        start: usize,
        dst: &mut [T],
    ) {
        // One bounds check for the whole window, then a plain vectorizable
        // copy loop — this bulk path is where the native backend earns its
        // wall-clock win over the per-element simulated accesses. See
        // `MemView::words_ptr` for why plain (non-atomic) access is sound
        // here.
        let (id, _) = buf.id_len();
        let words = self.mem.words_ptr(id, start, dst.len());
        // SAFETY: in-bounds (checked by `words_ptr`); simulated threads own
        // disjoint rows, so no concurrent writer overlaps this window.
        let words = unsafe { std::slice::from_raw_parts(words, dst.len()) };
        for (d, &w) in dst.iter_mut().zip(words) {
            *d = T::from_bits(w);
        }
    }

    fn write_slice<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, start: usize, src: &[T]) {
        let (id, _) = buf.id_len();
        let words = self.mem.words_ptr(id, start, src.len());
        // SAFETY: as in `read_slice_into`, plus exclusivity: only this
        // simulated thread writes this row during the launch.
        let words = unsafe { std::slice::from_raw_parts_mut(words, src.len()) };
        for (w, &v) in words.iter_mut().zip(src) {
            *w = v.to_bits();
        }
    }

    fn copy_row<T: DeviceValue>(
        &mut self,
        src: impl AsBuf<T>,
        src_start: usize,
        dst: impl AsBuf<T>,
        dst_start: usize,
        count: usize,
    ) {
        let (sid, _) = src.id_len();
        let (did, _) = dst.id_len();
        let s = self.mem.words_ptr(sid, src_start, count);
        let d = self.mem.words_ptr(did, dst_start, count);
        // SAFETY: both windows are in-bounds (checked by `words_ptr`) and
        // owned by this simulated thread for the duration of the launch;
        // `copy` has memmove semantics, so self-overlap within the thread's
        // own row (the simulator's overlap-aware case) is handled too.
        unsafe { std::ptr::copy(s, d, count) };
    }

    fn cooperative_read<T: DeviceValue>(
        &mut self,
        buf: impl AsBuf<T>,
        start: usize,
        dst: &mut [T],
    ) {
        let (id, _) = buf.id_len();
        let words = self.mem.words_ptr(id, start, dst.len());
        // SAFETY: staged arrays are read-only during the launch.
        let words = unsafe { std::slice::from_raw_parts(words, dst.len()) };
        for (d, &w) in dst.iter_mut().zip(words) {
            *d = T::from_bits(w);
        }
    }

    #[inline]
    fn global_window<T: WordValue>(
        &self,
        buf: impl AsBuf<T>,
        start: usize,
        len: usize,
    ) -> Option<&[T::Word]> {
        let (id, _) = buf.id_len();
        let words = self.mem.words_ptr(id, start, len);
        // SAFETY: in-bounds (checked by `words_ptr`); `T::Word` is `u64` or
        // `i64` (`WordValue` is sealed), which share the storage words'
        // layout and accept every bit pattern; the contract restricts
        // windows to data no thread writes during the launch, so no
        // concurrent writer exists.
        Some(unsafe { std::slice::from_raw_parts(words.cast::<T::Word>(), len) })
    }

    fn load_rng(&mut self, states: impl AsBuf<u64>, slot: usize) -> XorWow {
        let (id, _) = states.id_len();
        let w = self.mem.words_ptr(id, slot * 3, 3);
        // SAFETY: in-bounds (checked by `words_ptr`); each thread owns its
        // own 3-word RNG slot for the duration of the launch.
        let words = unsafe { [*w, *w.add(1), *w.add(2)] };
        XorWow::unpack(words)
    }

    fn store_rng(&mut self, states: impl AsBuf<u64>, slot: usize, rng: &XorWow) {
        let (id, _) = states.id_len();
        let w = self.mem.words_ptr(id, slot * 3, 3);
        let words = rng.pack();
        // SAFETY: as in `load_rng`.
        unsafe {
            *w = words[0];
            *w.add(1) = words[1];
            *w.add(2) = words[2];
        }
    }

    #[inline]
    fn charge_global(&mut self, _n: u64) {}

    #[inline]
    fn charge_alu(&mut self, _n: u64) {}

    #[inline]
    fn charge_special(&mut self, _n: u64) {}

    #[inline]
    fn charge_shared(&mut self, _n: u64) {}

    #[inline]
    fn charge_bank_conflicts(&mut self, _n: u64) {}

    #[inline]
    fn telemetry_read<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize) -> T {
        let (id, _) = buf.id_len();
        T::from_bits(self.mem.load(id, idx))
    }

    #[inline]
    fn telemetry_write<T: DeviceValue>(&mut self, buf: impl AsBuf<T>, idx: usize, value: T) {
        let (id, _) = buf.id_len();
        self.mem.store(id, idx, value.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel exercising every value-bearing access path: RNG-driven
    /// arithmetic, slices, copies, constants, textures, both atomics.
    struct Mixer {
        n: usize,
    }

    impl Kernel for Mixer {
        type Shared = ();
        type ThreadState = ();
        fn name(&self) -> &str {
            "mixer"
        }
        fn make_shared(&self, _b: usize) {}
        fn num_phases(&self) -> usize {
            2
        }
        fn phase<C: DeviceCtx>(&self, p: usize, ctx: &mut C, _s: &mut (), _t: &mut ()) {
            let data = ctx.arg_buf(0);
            let rng_states = ctx.arg_buf(1);
            let mins = ctx.arg_buf(2);
            let sums = ctx.arg_buf(3);
            let gid = ctx.global_id();
            if p == 0 {
                let mut rng = ctx.load_rng(rng_states, gid);
                let mut row = vec![0i64; self.n];
                ctx.read_slice_into::<i64>(data, gid * self.n, &mut row);
                for v in row.iter_mut() {
                    *v = v.wrapping_mul(3).wrapping_add(rng.next_below(1000) as i64);
                }
                ctx.write_slice::<i64>(data, gid * self.n, &row);
                ctx.store_rng(rng_states, gid, &rng);
            } else {
                let first: i64 = ctx.read_texture(data, gid * self.n);
                ctx.atomic_min_i64(mins, 0, first);
                ctx.atomic_add_i64(sums, 0, first);
                if gid == 0 && ctx.grid_dim() * ctx.block_dim() >= 2 {
                    // Overlapping same-buffer copy: exercises memmove path.
                    ctx.copy_row::<i64>(data, 0, data, 1, self.n - 1);
                }
            }
        }
    }

    fn drive<B: ExecBackend>(gpu: &mut B, threads: usize) -> (Vec<i64>, Vec<i64>, Vec<i64>) {
        use crate::rng::XorWow;
        gpu.set_parallelism(if threads <= 1 {
            SimParallelism::Serial
        } else {
            SimParallelism::Threads(threads)
        });
        let n = 7;
        let total = 4 * 8;
        let data = gpu.alloc::<i64>(total * n);
        let host: Vec<i64> = (0..(total * n) as i64).map(|v| v.wrapping_mul(17) % 991).collect();
        gpu.h2d(data, &host);
        let rng = gpu.alloc::<u64>(total * 3);
        let words: Vec<u64> =
            (0..total).flat_map(|t| XorWow::new(42, t as u64).pack()).collect();
        gpu.h2d(rng, &words);
        let mins = gpu.alloc::<i64>(1);
        gpu.h2d(mins, &[i64::MAX]);
        let sums = gpu.alloc::<i64>(1);
        for _ in 0..3 {
            gpu.launch_kernel(
                &Mixer { n },
                LaunchConfig::linear(4, 8),
                &[data.erased(), rng.erased(), mins.erased(), sums.erased()],
            )
            .unwrap();
        }
        (gpu.d2h(data), gpu.d2h(mins), gpu.d2h(sums))
    }

    #[test]
    fn native_matches_sim_bit_for_bit() {
        let spec = DeviceSpec::gt560m();
        let mut sim = Gpu::new(spec.clone());
        let baseline = drive(&mut sim, 1);
        for threads in [1usize, 3] {
            let mut native = NativeGpu::new(spec.clone());
            let got = drive(&mut native, threads);
            assert_eq!(got, baseline, "native(threads={threads}) diverged from sim");
        }
        // And the sim's own parallel dispatch still agrees.
        let mut sim_par = Gpu::new(spec);
        assert_eq!(drive(&mut sim_par, 3), baseline);
    }

    #[test]
    fn native_counts_launches_and_reports_zero_modeled_time() {
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        let _ = drive(&mut native, 1);
        assert_eq!(native.kernel_launches(), 3);
        assert_eq!(native.modeled_total_seconds(), 0.0);
        assert_eq!(native.modeled_kernel_seconds(), 0.0);
        assert_eq!(native.modeled_transfer_seconds(), 0.0);
        assert!(native.profiler_summary().is_empty());
        assert!(native.timeline_events().is_empty());
        assert_eq!(native.kind(), Backend::Native);
        assert_eq!(native.fault_stats(), FaultStats::default());
    }

    #[test]
    fn native_validates_launch_config_like_sim() {
        let spec = DeviceSpec::gt560m();
        let bad = LaunchConfig::linear(1, spec.max_threads_per_block + 1);
        let mut sim = Gpu::new(spec.clone());
        let mut native = NativeGpu::new(spec);
        let a = sim.alloc::<i64>(4);
        let b = ExecBackend::alloc::<i64>(&mut native, 4);
        let e1 = sim.launch(&Mixer { n: 1 }, bad, &[a.erased()]).unwrap_err();
        let e2 = native.launch_kernel(&Mixer { n: 1 }, bad, &[b.erased()]).unwrap_err();
        assert_eq!(e1, e2);
    }

    #[test]
    fn native_enforces_constant_memory_limit() {
        let spec = DeviceSpec::gt560m();
        let words = spec.constant_mem_bytes / 8 + 1;
        let mut native = NativeGpu::new(spec);
        let data = vec![0i64; words];
        let err = native.alloc_const(&data).unwrap_err();
        assert!(matches!(err, LaunchError::ConstantMemoryExceeded { .. }));
    }

    #[test]
    #[should_panic(expected = "fault injection is sim-only")]
    fn native_rejects_active_fault_plan() {
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        let plan = FaultPlan { launch_failure_rate: 0.5, ..FaultPlan::disabled() };
        native.set_fault_plan(Some(plan));
    }

    #[test]
    fn native_accepts_clearing_or_inert_fault_plan() {
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        native.set_fault_plan(None);
        native.set_fault_plan(Some(FaultPlan::disabled()));
    }

    #[test]
    fn backend_labels_round_trip() {
        for b in [Backend::Sim, Backend::Native] {
            assert_eq!(b.label().parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), b.label());
        }
        assert!("cuda".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Sim);
    }
}
