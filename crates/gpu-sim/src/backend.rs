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
//!   directly on the host, with **no** modeled clock, no per-access
//!   simulation, and no fault machinery on the hot path. This is the
//!   deployment path. Besides single launches it runs *native passes*
//!   ([`NativeGpu::run_pass`]): one closure standing for rounds of several
//!   launches whose threads each touch only their own data, over device
//!   memory borrowed once as typed slices, so a pipeline can run a whole
//!   generation, or a whole run, per thread instead of one kernel per
//!   sweep (DESIGN.md §11).
//!
//! Both backends take a launch as a kernel value and a launch
//! configuration: the kernel carries its buffers as fields and its block
//! and thread state in `ScratchArena`s, so neither backend builds kernel
//! state per block. Both execute a launch's blocks serially, in block-index
//! order, on the calling thread, each block as the same loop (every phase,
//! every thread in index order); the service gets its host parallelism
//! from one worker thread per device instead (DESIGN.md §11).
//!
//! The contract between them is **byte-identity**: with the same inputs,
//! seeds and launch sequence, both backends leave bit-identical values in
//! device memory. That holds by construction because (a) kernels execute
//! the exact same `phase` code through [`DeviceCtx`], (b) XORWOW streams
//! are device-resident data, and (c) every access, atomics included, goes
//! to the *same* `MemoryPool` methods, in place and in the same serial
//! block and thread order. A native pass keeps the contract for the state
//! its launches leave behind, not for every intermediate buffer: it calls
//! the per-thread functions the kernels' `phase` bodies call, and whatever
//! it keeps in locals instead of device memory (a candidate row or energy
//! the next launch would only read back) is data the next generation never
//! reads. What the native backend does not have: a profiler
//! ([`ExecBackend::sim_profiler`] is `None`, so there are no modeled
//! seconds and no timeline), fault injection and telemetry (sim-only;
//! installing an active fault plan panics, and the pipelines reject such
//! requests before any launch).

use crate::device::DeviceSpec;
use crate::engine::{DeviceCtx, Gpu, Kernel, LaunchError};
use crate::fault::{FaultPlan, FaultStats};
use crate::grid::LaunchConfig;
use crate::memory::{Buf, ConstBuf, DeviceValue, MemoryPool, PassMem};
use crate::profiler::Profiler;
use std::fmt;
use std::str::FromStr;

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
/// The simulator's profiler (modeled seconds, timeline, per-kernel
/// summary) is reached only through [`sim_profiler`](Self::sim_profiler),
/// which is `None` on the native backend: a missing clock cannot be read
/// as a zero one. Spans are no-ops on native, and its fault count is a
/// true zero, since it injects none. Installing an *active* fault plan on
/// a backend that cannot honor it panics instead of silently dropping it;
/// callers route faulted work to [`Backend::Sim`] first.
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
    fn launch_kernel<K: Kernel>(
        &mut self,
        kernel: &K,
        cfg: LaunchConfig,
    ) -> Result<(), LaunchError>;

    /// Install (or clear, with `None`) a fault-injection plan.
    ///
    /// # Panics
    /// The native backend panics on an *active* plan — fault injection is
    /// sim-only and must be rejected upstream, never silently ignored.
    fn set_fault_plan(&mut self, plan: Option<FaultPlan>);

    /// Counters of injected faults (always zero on the native backend).
    fn fault_stats(&self) -> FaultStats;

    /// Open a named span with key/value metadata on the timeline. The
    /// native backend records no timeline, so it never calls `args`.
    fn span_begin_args(&mut self, name: &str, args: impl FnOnce() -> Vec<(String, String)>);

    /// Close the innermost open span with this name (no-op on the native
    /// backend).
    fn span_end(&mut self, name: &str);

    /// Kernel launches so far: every successful one and, on the
    /// simulator, every attempt its watchdog killed. No other failed launch
    /// counts. On the native backend the count is of *logical* launches: a
    /// native pass ([`NativeGpu::run_pass`]) adds one for each launch of
    /// each round it stands for, so a pass counts what the simulator's
    /// launch-by-launch generations count. Identical across backends for a
    /// clean run — part of the parity contract.
    fn kernel_launches(&self) -> usize;

    /// The simulator's profiler: modeled seconds, the timeline and the
    /// per-kernel summary. `None` on the native backend, whose currency is
    /// wall-clock time.
    fn sim_profiler(&self) -> Option<&Profiler>;

    /// The native backend itself, for pipelines that run generations as
    /// native passes ([`NativeGpu::run_pass`]) instead of launch by launch.
    /// `None` on the simulator, which runs every launch.
    fn native(&mut self) -> Option<&mut NativeGpu> {
        None
    }
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

    fn launch_kernel<K: Kernel>(
        &mut self,
        kernel: &K,
        cfg: LaunchConfig,
    ) -> Result<(), LaunchError> {
        Gpu::launch(self, kernel, cfg).map(|_| ())
    }

    fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        Gpu::set_fault_plan(self, plan);
    }

    fn fault_stats(&self) -> FaultStats {
        Gpu::fault_stats(self)
    }

    fn span_begin_args(&mut self, name: &str, args: impl FnOnce() -> Vec<(String, String)>) {
        Gpu::span_begin_args(self, name, args());
    }

    fn span_end(&mut self, name: &str) {
        Gpu::span_end(self, name);
    }

    fn kernel_launches(&self) -> usize {
        self.profiler().kernel_launches()
    }

    fn sim_profiler(&self) -> Option<&Profiler> {
        Some(self.profiler())
    }
}

/// The native host backend: one device's worth of memory and a launch
/// counter, and nothing else. See the module docs for the contract.
#[derive(Debug)]
pub struct NativeGpu {
    spec: DeviceSpec,
    pool: MemoryPool,
    launches: usize,
}

impl NativeGpu {
    /// Bring up a native device. It runs the blocks of each launch serially
    /// on the calling thread.
    pub fn new(spec: DeviceSpec) -> Self {
        NativeGpu { spec, pool: MemoryPool::default(), launches: 0 }
    }

    /// Run one native pass: `pass` once, over device memory borrowed for
    /// the whole pass ([`PassMem`]), on the calling thread. The pass stands
    /// for `rounds` rounds of the launches of `launches`: it rejects a
    /// configuration with the error the first of them would return from
    /// [`ExecBackend::launch_kernel`] before it borrows anything, and on
    /// success adds `rounds · launches.len()` to
    /// [`kernel_launches`](ExecBackend::kernel_launches).
    ///
    /// `pass` runs the threads of `cfg` itself, in global-id order, which
    /// is the block-then-thread order of a launch. Standing for the
    /// launches is exact when every thread of them reads and writes only
    /// its own data, apart from order-independent atomics (a minimum
    /// folded in place): each thread then sees what it would see launch by
    /// launch, even if it runs all its rounds before the next thread
    /// starts. A pass has no barrier, so data a kernel stages in its
    /// block's shared memory, the pass reads from global memory instead.
    pub fn run_pass<R>(
        &mut self,
        cfg: LaunchConfig,
        launches: &[&dyn Kernel],
        rounds: usize,
        pass: impl FnOnce(&mut PassMem<'_>) -> R,
    ) -> Result<R, LaunchError> {
        let block_dim = cfg.block_size();
        for kernel in launches {
            let shared_bytes = kernel.shared_mem_bytes(block_dim);
            cfg.validate(&self.spec, shared_bytes).map_err(LaunchError::InvalidConfig)?;
        }
        let out = pass(&mut self.pool.pass_mem());
        self.launches += rounds * launches.len();
        Ok(out)
    }
}

/// Execute one block natively: same phase/barrier structure as the
/// simulator's `run_block`, minus costs, fault streams and race tracking.
fn native_run_block<K: Kernel>(
    kernel: &K,
    block_idx: usize,
    block_dim: usize,
    phases: usize,
    mem: &mut MemoryPool,
) {
    for phase in 0..phases {
        for thread_idx in 0..block_dim {
            let mut ctx = NativeCtx { thread_idx, block_idx, block_dim, mem: &mut *mem };
            kernel.phase(phase, &mut ctx);
        }
    }
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

    fn alloc<T: DeviceValue>(&mut self, len: usize) -> Buf<T> {
        self.pool.alloc(len)
    }

    fn alloc_const<T: DeviceValue>(&mut self, data: &[T]) -> Result<ConstBuf<T>, LaunchError> {
        self.pool.alloc_const(data, self.spec.constant_mem_bytes)
    }

    fn h2d<T: DeviceValue>(&mut self, buf: Buf<T>, data: &[T]) {
        self.pool.h2d(buf, data);
    }

    fn d2h<T: DeviceValue>(&mut self, buf: Buf<T>) -> Vec<T> {
        self.pool.d2h(buf)
    }

    fn d2h_range<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, len: usize) -> Vec<T> {
        self.pool.d2h_range(buf, start, len)
    }

    fn peek<T: DeviceValue>(&self, buf: Buf<T>) -> Vec<T> {
        self.pool.d2h(buf)
    }

    fn launch_kernel<K: Kernel>(
        &mut self,
        kernel: &K,
        cfg: LaunchConfig,
    ) -> Result<(), LaunchError> {
        let block_dim = cfg.block_size();
        let shared_bytes = kernel.shared_mem_bytes(block_dim);
        cfg.validate(&self.spec, shared_bytes).map_err(LaunchError::InvalidConfig)?;

        let phases = kernel.num_phases().max(1);
        for block_idx in 0..cfg.num_blocks() {
            native_run_block(kernel, block_idx, block_dim, phases, &mut self.pool);
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

    fn span_begin_args(&mut self, _name: &str, _args: impl FnOnce() -> Vec<(String, String)>) {}

    fn span_end(&mut self, _name: &str) {}

    fn kernel_launches(&self) -> usize {
        self.launches
    }

    fn sim_profiler(&self) -> Option<&Profiler> {
        None
    }

    fn native(&mut self) -> Option<&mut NativeGpu> {
        Some(self)
    }
}

/// The native implementation of the device surface: a view over the
/// device's `MemoryPool`, borrowed for one phase call, with plain
/// bounds-checked access and nothing else. The `charge_*` hooks vanish,
/// fault injection is never active, and the telemetry port degenerates to
/// a plain access.
pub struct NativeCtx<'a> {
    thread_idx: usize,
    block_idx: usize,
    block_dim: usize,
    mem: &'a mut MemoryPool,
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
    fn fault_injection_active(&self) -> bool {
        false
    }

    #[inline]
    fn read<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize) -> T {
        self.mem.read(buf, idx, None)
    }

    #[inline]
    fn write<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize, value: T) {
        self.mem.write(buf, idx, value);
    }

    #[inline]
    fn read_texture<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize) -> T {
        self.read(buf, idx)
    }

    #[inline]
    fn read_const<T: DeviceValue>(&mut self, cb: ConstBuf<T>, idx: usize) -> T {
        self.mem.read_const(cb, idx)
    }

    fn atomic_min_i64(&mut self, buf: Buf<i64>, idx: usize, value: i64) -> i64 {
        self.mem.atomic_min_i64(buf, idx, value)
    }

    fn read_slice_into<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, dst: &mut [T]) {
        // One bounds check for the whole range, then a plain vectorizable
        // copy loop — this bulk path is where the native backend earns its
        // wall-clock win over the per-element simulated accesses.
        self.mem.read_slice_into(buf, start, dst, None);
    }

    fn write_slice<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, src: &[T]) {
        self.mem.write_slice(buf, start, src);
    }

    fn copy_row<T: DeviceValue>(
        &mut self,
        src: Buf<T>,
        src_start: usize,
        dst: Buf<T>,
        dst_start: usize,
        count: usize,
    ) {
        self.mem.copy(src, src_start, dst, dst_start, count);
    }

    fn cooperative_read<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, dst: &mut [T]) {
        self.read_slice_into(buf, start, dst);
    }

    #[inline]
    fn global_window<T: DeviceValue<Word = T>>(
        &self,
        buf: Buf<T>,
        start: usize,
        len: usize,
    ) -> Option<&[T]> {
        Some(self.mem.window(buf, start, len))
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
    fn telemetry_read<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize) -> T {
        self.read(buf, idx)
    }

    #[inline]
    fn telemetry_write<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize, value: T) {
        self.write(buf, idx, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Kernel exercising every value-bearing access path: RNG-driven
    /// arithmetic, slices, copies, constants, textures, the atomic.
    struct Mixer {
        n: usize,
        threads: usize,
        data: Buf<i64>,
        rng: Buf<u64>,
        mins: Buf<i64>,
    }

    impl Mixer {
        /// A mixer over `threads` rows of `n` values on `gpu`: the rows
        /// hold a fixed pattern, each thread's stream is seeded, and the
        /// minimum starts at `i64::MAX`.
        fn upload<B: ExecBackend>(gpu: &mut B, n: usize, threads: usize) -> Mixer {
            use crate::rng::XorWow;
            let data = gpu.alloc::<i64>(threads * n);
            let host: Vec<i64> =
                (0..(threads * n) as i64).map(|v| v.wrapping_mul(17) % 991).collect();
            gpu.h2d(data, &host);
            let rng = gpu.alloc::<u64>(threads * 3);
            let words: Vec<u64> =
                (0..threads).flat_map(|t| XorWow::new(42, t as u64).pack()).collect();
            gpu.h2d(rng, &words);
            let mins = gpu.alloc::<i64>(1);
            gpu.h2d(mins, &[i64::MAX]);
            Mixer { n, threads, data, rng, mins }
        }
    }

    impl Kernel for Mixer {
        fn name(&self) -> &str {
            "mixer"
        }
        fn num_phases(&self) -> usize {
            2
        }
        fn phase<C: DeviceCtx>(&self, p: usize, ctx: &mut C) {
            let gid = ctx.global_id();
            if p == 0 {
                let mut rng = ctx.load_rng(self.rng, gid);
                let mut row = vec![0i64; self.n];
                ctx.read_slice_into(self.data, gid * self.n, &mut row);
                for v in row.iter_mut() {
                    *v = v.wrapping_mul(3).wrapping_add(rng.next_below(1000) as i64);
                }
                ctx.write_slice(self.data, gid * self.n, &row);
                ctx.store_rng(self.rng, gid, &rng);
            } else {
                let first = ctx.read_texture(self.data, gid * self.n);
                ctx.atomic_min_i64(self.mins, 0, first);
                if gid == 0 && self.threads >= 2 {
                    // Overlapping same-buffer copy: exercises memmove path.
                    ctx.copy_row(self.data, 0, self.data, 1, self.n - 1);
                }
            }
        }
    }

    fn drive<B: ExecBackend>(gpu: &mut B) -> (Vec<i64>, Vec<i64>) {
        let mixer = Mixer::upload(gpu, 7, 4 * 8);
        for _ in 0..3 {
            gpu.launch_kernel(&mixer, LaunchConfig::linear(4, 8)).unwrap();
        }
        (gpu.d2h(mixer.data), gpu.d2h(mixer.mins))
    }

    /// Thread 0 sends `src` (`n` elements) through every value-bearing
    /// path into four consecutive rows of `dst`: per-element read/write,
    /// slice read/write, a copy across buffers and a copy within `dst`.
    struct RoundTrip<T> {
        src: Buf<T>,
        dst: Buf<T>,
    }

    impl<T: DeviceValue> Kernel for RoundTrip<T> {
        fn name(&self) -> &str {
            "round_trip"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            if ctx.global_id() != 0 {
                return;
            }
            let n = self.src.len();
            for i in 0..n {
                let v = ctx.read(self.src, i);
                ctx.write(self.dst, i, v);
            }
            let mut row = vec![T::default(); n];
            ctx.read_slice_into(self.src, 0, &mut row);
            ctx.write_slice(self.dst, n, &row);
            ctx.copy_row(self.src, 0, self.dst, 2 * n, n);
            ctx.copy_row(self.dst, 2 * n, self.dst, 3 * n, n);
        }
    }

    /// Thread 0 copies `src` into `dst` through a zero-copy window where
    /// the backend offers one.
    struct WindowCopy {
        src: Buf<u32>,
        dst: Buf<u32>,
    }

    impl Kernel for WindowCopy {
        fn name(&self) -> &str {
            "window_copy"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            if ctx.global_id() != 0 {
                return;
            }
            let n = self.src.len();
            let row = match ctx.global_window(self.src, 0, n) {
                Some(window) => window.to_vec(),
                None => {
                    let mut row = vec![0; n];
                    ctx.read_slice_into(self.src, 0, &mut row);
                    row
                }
            };
            ctx.write_slice(self.dst, 0, &row);
        }
    }

    /// `values` after h2d, every path of [`RoundTrip`] and d2h, as bits.
    fn round_trip<B: ExecBackend, T: DeviceValue>(
        gpu: &mut B,
        values: &[T],
        bits: impl Fn(T) -> u64,
    ) -> Vec<u64> {
        let src = gpu.alloc::<T>(values.len());
        gpu.h2d(src, values);
        let dst = gpu.alloc::<T>(4 * values.len());
        gpu.launch_kernel(&RoundTrip { src, dst }, LaunchConfig::linear(1, 2)).unwrap();
        gpu.d2h(dst).into_iter().map(bits).collect()
    }

    /// Every narrow value through every path of `gpu`, then `u32`s through
    /// a window.
    fn narrow_round_trips<B: ExecBackend>(gpu: &mut B) -> Vec<Vec<u64>> {
        let nan = f32::from_bits(0x7fc0_1234);
        let ids = [u32::MAX, 0, 7];
        let src = gpu.alloc::<u32>(ids.len());
        gpu.h2d(src, &ids);
        let dst = gpu.alloc::<u32>(ids.len());
        gpu.launch_kernel(&WindowCopy { src, dst }, LaunchConfig::linear(1, 2)).unwrap();
        vec![
            round_trip(gpu, &ids, u64::from),
            round_trip(gpu, &[i32::MIN, -1, i32::MAX], |v| v as u64),
            round_trip(gpu, &[u16::MAX, 1], u64::from),
            round_trip(gpu, &[i8::MIN, -1], |v| v as u64),
            round_trip(gpu, &[-0.0f32, nan], |v| u64::from(v.to_bits())),
            gpu.d2h(dst).into_iter().map(u64::from).collect(),
        ]
    }

    #[test]
    fn native_matches_sim_bit_for_bit() {
        let baseline = drive(&mut Gpu::new(DeviceSpec::gt560m()));
        assert_eq!(drive(&mut NativeGpu::new(DeviceSpec::gt560m())), baseline);

        // Narrow words hold every value bit for bit on both backends.
        let sim = narrow_round_trips(&mut Gpu::new(DeviceSpec::gt560m()));
        assert_eq!(narrow_round_trips(&mut NativeGpu::new(DeviceSpec::gt560m())), sim);
        let nan = f32::from_bits(0x7fc0_1234);
        let rows: [Vec<u64>; 5] = [
            vec![u64::from(u32::MAX), 0, 7],
            vec![i32::MIN as u64, -1i32 as u64, i32::MAX as u64],
            vec![u64::from(u16::MAX), 1],
            vec![i8::MIN as u64, -1i8 as u64],
            vec![u64::from((-0.0f32).to_bits()), u64::from(nan.to_bits())],
        ];
        for (got, row) in sim.iter().zip(&rows) {
            assert_eq!(got, &row.repeat(4));
        }
        assert_eq!(sim[5], rows[0], "window");
    }

    /// Native has no profiler, so no modeled time to report.
    #[test]
    fn native_counts_launches_and_reports_zero_modeled_time() {
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        let _ = drive(&mut native);
        assert_eq!(native.kernel_launches(), 3);
        assert!(native.sim_profiler().is_none());
        assert_eq!(native.kind(), Backend::Native);
        assert_eq!(native.fault_stats(), FaultStats::default());
        let mut sim = Gpu::new(DeviceSpec::gt560m());
        let _ = drive(&mut sim);
        let profiler = sim.sim_profiler().expect("the simulator has a profiler");
        assert_eq!(profiler.kernel_launches(), 3);
        assert!(profiler.total_seconds() > 0.0);
    }

    /// Records which host thread ran each block, and in which order.
    struct WhoRan {
        ran: Mutex<Vec<(usize, std::thread::ThreadId)>>,
    }

    impl Kernel for WhoRan {
        fn name(&self) -> &str {
            "who_ran"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            if ctx.thread_idx() == 0 {
                let me = (ctx.block_idx(), std::thread::current().id());
                self.ran.lock().expect("recorder poisoned").push(me);
            }
        }
    }

    #[test]
    fn both_backends_run_blocks_in_order_on_the_calling_thread() {
        let cfg = LaunchConfig::linear(8, 4);
        let caller = std::thread::current().id();
        let in_order: Vec<_> = (0..8).map(|b| (b, caller)).collect();

        let on_sim = WhoRan { ran: Mutex::new(Vec::new()) };
        Gpu::new(DeviceSpec::gt560m()).launch(&on_sim, cfg).unwrap();
        assert_eq!(on_sim.ran.into_inner().unwrap(), in_order, "sim");

        let on_native = WhoRan { ran: Mutex::new(Vec::new()) };
        NativeGpu::new(DeviceSpec::gt560m()).launch_kernel(&on_native, cfg).unwrap();
        assert_eq!(on_native.ran.into_inner().unwrap(), in_order, "native");
    }

    /// A kernel that asks for `.0` bytes of shared memory and does nothing:
    /// a stand-in for the launches a native pass stands for.
    struct Footprint(usize);

    impl Kernel for Footprint {
        fn name(&self) -> &str {
            "footprint"
        }
        fn shared_mem_bytes(&self, _block_dim: usize) -> usize {
            self.0
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, _ctx: &mut C) {}
    }

    #[test]
    fn pass_borrows_typed_slices_in_place() {
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        let rows = ExecBackend::alloc::<u32>(&mut native, 6);
        native.h2d(rows, &[0, 1, 2, 3, 4, 5]);
        let energies = ExecBackend::alloc::<i64>(&mut native, 2);
        native.h2d(energies, &[-7, 9]);
        let words = ExecBackend::alloc::<u64>(&mut native, 1);
        native.h2d(words, &[u64::MAX]);
        let seen = native
            .run_pass(LaunchConfig::linear(1, 2), &[], 1, |mem| {
                let (rows, energies) = (mem.take(rows), mem.take(energies));
                let words = mem.take(words);
                rows[3..].reverse();
                energies[1] = energies[0] * 2;
                let seen = u64::from_word(words[0]);
                words[0] = 7u64.to_word();
                seen
            })
            .unwrap();
        assert_eq!(seen, u64::MAX, "a u64 buffer lends its words");
        assert_eq!(native.d2h(rows), vec![0, 1, 2, 5, 4, 3]);
        assert_eq!(native.d2h(energies), vec![-7, -14]);
        assert_eq!(native.d2h(words), vec![7]);
    }

    #[test]
    fn pass_counts_its_launches_once_per_round() {
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        let (a, b) = (Footprint(0), Footprint(64));
        let cfg = LaunchConfig::linear(2, 4);
        native.run_pass(cfg, &[&a, &b, &a], 5, |_| ()).unwrap();
        assert_eq!(native.kernel_launches(), 15, "three launches, five rounds");
        native.launch_kernel(&a, cfg).unwrap();
        native.run_pass(cfg, &[&b], 1, |_| ()).unwrap();
        assert_eq!(native.kernel_launches(), 17);
    }

    #[test]
    fn pass_rejects_a_bad_config_before_borrowing() {
        let spec = DeviceSpec::gt560m();
        let fits = Footprint(0);
        let greedy = Footprint(spec.shared_mem_per_block + 1);
        let too_wide = LaunchConfig::linear(1, spec.max_threads_per_block + 1);
        let cases = [(too_wide, &fits), (LaunchConfig::linear(2, 32), &greedy)];
        for (cfg, kernel) in cases {
            let mut native = NativeGpu::new(spec.clone());
            let want = native.launch_kernel(kernel, cfg).unwrap_err();
            assert!(matches!(want, LaunchError::InvalidConfig(_)), "{want:?}");
            assert_eq!(Gpu::new(spec.clone()).launch(kernel, cfg).unwrap_err(), want);
            let mut borrowed = false;
            let got = native.run_pass(cfg, &[&fits, kernel], 3, |_| borrowed = true).unwrap_err();
            assert_eq!(got, want);
            assert!(!borrowed, "the pass never ran");
            assert_eq!(native.kernel_launches(), 0, "a rejected pass counts nothing");
        }
    }

    #[test]
    #[should_panic(expected = "taken twice in one pass")]
    fn pass_refuses_a_buffer_taken_twice() {
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        let rows = ExecBackend::alloc::<u32>(&mut native, 6);
        let _ = native.run_pass(LaunchConfig::linear(1, 2), &[], 1, |mem| {
            let _mine = mem.take(rows);
            let _again = mem.take(rows);
        });
    }

    #[test]
    #[should_panic(expected = "wrong word width")]
    fn pass_refuses_a_buffer_of_the_wrong_word_width() {
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        let _wide = ExecBackend::alloc::<i64>(&mut native, 4);
        // Buffer 0 of another device is narrow; here buffer 0 is wide.
        let narrow = ExecBackend::alloc::<u32>(&mut NativeGpu::new(DeviceSpec::gt560m()), 4);
        let _ = native.run_pass(LaunchConfig::linear(1, 2), &[], 1, |mem| {
            let _ = mem.take(narrow);
        });
    }

    /// Every thread folds its value into one cross-block minimum.
    struct MinOfAll {
        values: Buf<i64>,
        out: Buf<i64>,
    }
    impl Kernel for MinOfAll {
        fn name(&self) -> &str {
            "min_of_all"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            let v = ctx.read(self.values, ctx.global_id());
            ctx.atomic_min_i64(self.out, 0, v);
        }
    }

    #[test]
    fn atomics_merge_exactly_across_blocks() {
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        let values = ExecBackend::alloc::<i64>(&mut native, 128);
        let host: Vec<i64> = (0..128).map(|i| 1000 - 7 * i as i64).collect();
        native.h2d(values, &host);
        let out = ExecBackend::alloc::<i64>(&mut native, 1);
        native.h2d(out, &[i64::MAX]);
        native.launch_kernel(&MinOfAll { values, out }, LaunchConfig::linear(4, 32)).unwrap();
        assert_eq!(native.d2h(out), vec![*host.iter().min().unwrap()]);
    }

    /// Every thread folds its value into a running minimum; thread 0 of
    /// each block records what the atomic returned to it.
    struct FoldWitness {
        values: Buf<i64>,
        out: Buf<i64>,
        seen: Buf<i64>,
    }
    impl Kernel for FoldWitness {
        fn name(&self) -> &str {
            "fold_witness"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            let v = ctx.read(self.values, ctx.global_id());
            let min = ctx.atomic_min_i64(self.out, 0, v);
            if ctx.thread_idx() == 0 {
                ctx.write(self.seen, ctx.block_idx(), min);
            }
        }
    }

    /// `(out, seen)` after one `FoldWitness` launch over `host`.
    fn fold_witness<B: ExecBackend>(gpu: &mut B, host: &[i64], blocks: usize) -> Vec<Vec<i64>> {
        let values = gpu.alloc::<i64>(host.len());
        gpu.h2d(values, host);
        let out = gpu.alloc::<i64>(1);
        gpu.h2d(out, &[i64::MAX]);
        let seen = gpu.alloc::<i64>(blocks);
        let cfg = LaunchConfig::linear(blocks, host.len() / blocks);
        gpu.launch_kernel(&FoldWitness { values, out, seen }, cfg).unwrap();
        vec![gpu.d2h(out), gpu.d2h(seen)]
    }

    #[test]
    fn atomics_apply_in_place_and_return_the_previous_value() {
        let (blocks, threads) = (4, 8);
        // Not monotone, so some blocks lower the running minimum and some
        // leave it.
        let host: Vec<i64> = (0..blocks * threads).map(|i| (i * 37 % 29) as i64 - 10).collect();
        let sim = fold_witness(&mut Gpu::new(DeviceSpec::gt560m()), &host, blocks);
        assert_eq!(fold_witness(&mut NativeGpu::new(DeviceSpec::gt560m()), &host, blocks), sim);
        let (out, seen) = (&sim[0], &sim[1]);
        for b in 0..blocks {
            let before = &host[..b * threads];
            assert_eq!(seen[b], before.iter().copied().fold(i64::MAX, i64::min), "block {b}");
        }
        assert_eq!(out, &vec![*host.iter().min().unwrap()]);
    }

    /// Thread 0 copies `count` elements from `src` at `src_start` to `dst`
    /// at `dst_start`.
    struct CopyOnce {
        src: Buf<i64>,
        dst: Buf<i64>,
        src_start: usize,
        dst_start: usize,
        count: usize,
    }
    impl Kernel for CopyOnce {
        fn name(&self) -> &str {
            "copy_once"
        }
        fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
            if ctx.global_id() == 0 {
                ctx.copy_row(self.src, self.src_start, self.dst, self.dst_start, self.count);
            }
        }
    }

    /// Both buffers after copying `count` elements at `src_start` of the
    /// first to `dst_start` of the second, or within the first when
    /// `same_buffer`.
    fn copy_once<B: ExecBackend>(
        gpu: &mut B,
        (src_start, dst_start, count): (usize, usize, usize),
        same_buffer: bool,
    ) -> Vec<Vec<i64>> {
        let a = gpu.alloc::<i64>(16);
        gpu.h2d(a, &(0..16).collect::<Vec<i64>>());
        let b = gpu.alloc::<i64>(16);
        gpu.h2d(b, &(100..116).collect::<Vec<i64>>());
        let dst = if same_buffer { a } else { b };
        let k = CopyOnce { src: a, dst, src_start, dst_start, count };
        gpu.launch_kernel(&k, LaunchConfig::linear(1, 4)).unwrap();
        vec![gpu.d2h(a), gpu.d2h(b)]
    }

    #[test]
    fn copy_row_is_a_memmove_on_both_backends() {
        // Across buffers, then within one with the destination ahead of and
        // behind an overlapping source.
        for (src_start, dst_start, same_buffer) in [(2, 5, false), (2, 5, true), (5, 2, true)] {
            let count = 6;
            let mut want: Vec<Vec<i64>> = vec![(0..16).collect(), (100..116).collect()];
            if same_buffer {
                want[0].copy_within(src_start..src_start + count, dst_start);
            } else {
                let row = want[0][src_start..src_start + count].to_vec();
                want[1][dst_start..dst_start + count].copy_from_slice(&row);
            }
            let copy = (src_start, dst_start, count);
            let case = (src_start, dst_start, same_buffer);
            let sim = copy_once(&mut Gpu::new(DeviceSpec::gt560m()), copy, same_buffer);
            assert_eq!(sim, want, "sim {case:?}");
            let native = copy_once(&mut NativeGpu::new(DeviceSpec::gt560m()), copy, same_buffer);
            assert_eq!(native, want, "native {case:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics_propagate_to_the_caller() {
        struct Oob {
            buf: Buf<i64>,
        }
        impl Kernel for Oob {
            fn name(&self) -> &str {
                "oob"
            }
            fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
                // Only the last block trips the bug, after every other
                // block has run.
                if ctx.block_idx() == 3 {
                    let _ = ctx.read(self.buf, 99);
                }
            }
        }
        let mut native = NativeGpu::new(DeviceSpec::gt560m());
        let buf = ExecBackend::alloc::<i64>(&mut native, 4);
        let _ = native.launch_kernel(&Oob { buf }, LaunchConfig::linear(4, 8));
    }

    #[test]
    fn native_validates_launch_config_like_sim() {
        let spec = DeviceSpec::gt560m();
        let bad = LaunchConfig::linear(1, spec.max_threads_per_block + 1);
        let mut sim = Gpu::new(spec.clone());
        let mut native = NativeGpu::new(spec);
        let a = Mixer::upload(&mut sim, 1, 4);
        let b = Mixer::upload(&mut native, 1, 4);
        let e1 = sim.launch(&a, bad).unwrap_err();
        let e2 = native.launch_kernel(&b, bad).unwrap_err();
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
