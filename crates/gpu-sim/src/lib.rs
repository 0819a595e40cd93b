//! # cuda-sim
//!
//! A **CUDA execution-model simulator**: the substrate that stands in for
//! the paper's NVIDIA GT 560M + CUDA runtime in this reproduction (no GPU is
//! available — see DESIGN.md §2).
//!
//! The simulator reproduces the *semantics* the paper's algorithms rely on
//! and *models* the timing its evaluation reports:
//!
//! * **Execution semantics (exact):** grid/block/thread hierarchy, linear
//!   launch configurations, per-block shared memory, constant memory with
//!   broadcast reads, `__syncthreads` barriers (kernels are phase-structured:
//!   every thread of a block finishes phase *p* before any enters *p+1*),
//!   global-memory reads/writes with optional data-race detection, atomic
//!   operations, and per-thread XORWOW random streams (the cuRAND default
//!   generator).
//! * **Performance model (analytic):** per-thread cost counters (ALU,
//!   special-function, global transactions, shared accesses, atomics) are
//!   aggregated per warp (lockstep: a warp pays the maximum of its lanes),
//!   then per block and per SM under a roofline rule
//!   (`max(compute, memory)`), with blocks distributed round-robin over the
//!   SMs, plus fixed kernel-launch and PCIe transfer overheads. The model
//!   yields *modeled seconds* with the qualitative behaviour the paper
//!   describes: oversubscribed blocks serialize on SMs, small kernels are
//!   dominated by launch/transfer overhead, and memory-heavy kernels are
//!   bandwidth-bound.
//! * **Fault injection (optional):** a seeded [`FaultPlan`] installed via
//!   [`Gpu::set_fault_plan`] deterministically injects transient launch
//!   failures, read-side bit flips and watchdog-killed hangs (see the
//!   [`fault`] module docs) so resilience layers above the simulator can be
//!   tested end to end.
//!
//! The simulator *executes* the blocks of a launch serially, in
//! block-index order, on the calling thread; all *parallel timing* comes
//! from the model, and `EXPERIMENTS.md` labels every GPU time as modeled.
//!
//! Kernels are written once against the [`DeviceCtx`] trait and run on
//! either execution backend ([`backend::ExecBackend`]): the simulator
//! ([`Gpu`]), the semantic referee, or the native host backend
//! ([`backend::NativeGpu`]), the speed path, which executes the same kernel
//! bodies in the same serial block order with no simulation overhead and
//! byte-identical results, and can run rounds of several thread-independent
//! launches as one native pass over device memory borrowed once
//! ([`backend::NativeGpu::run_pass`], [`PassMem`]) (DESIGN.md §11, §16).
//!
//! A kernel holds its device buffers as typed [`Buf`] fields, the analogue
//! of CUDA launch parameters, so a launch is just the kernel value and a
//! [`LaunchConfig`]; block-shared data and working vectors live in
//! [`ScratchArena`]s the kernel owns (see [`Kernel`]).
//!
//! ```
//! use cuda_sim::{Buf, DeviceCtx, DeviceSpec, Gpu, Kernel, LaunchConfig};
//! use cuda_sim::backend::{ExecBackend, NativeGpu};
//!
//! struct AddOne {
//!     buf: Buf<i64>,
//! }
//! impl Kernel for AddOne {
//!     fn name(&self) -> &str { "add_one" }
//!     fn phase<C: DeviceCtx>(&self, _phase: usize, ctx: &mut C) {
//!         let gid = ctx.global_id();
//!         let v = ctx.read(self.buf, gid);
//!         ctx.write(self.buf, gid, v + 1);
//!     }
//! }
//!
//! let mut gpu = Gpu::new(DeviceSpec::gt560m());
//! let buf = gpu.alloc::<i64>(8);
//! gpu.h2d(buf, &[0i64, 1, 2, 3, 4, 5, 6, 7]);
//! gpu.launch(&AddOne { buf }, LaunchConfig::linear(2, 4)).unwrap();
//! assert_eq!(gpu.d2h(buf), vec![1i64, 2, 3, 4, 5, 6, 7, 8]);
//!
//! // The same kernel on the native backend, through the backend trait.
//! let mut native = NativeGpu::new(DeviceSpec::gt560m());
//! let buf = ExecBackend::alloc::<i64>(&mut native, 8);
//! native.h2d(buf, &[0i64, 1, 2, 3, 4, 5, 6, 7]);
//! native.launch_kernel(&AddOne { buf }, LaunchConfig::linear(2, 4)).unwrap();
//! assert_eq!(native.d2h(buf), vec![1i64, 2, 3, 4, 5, 6, 7, 8]);
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod cost;
pub mod device;
pub mod engine;
pub mod fault;
pub mod grid;
pub mod memory;
pub mod pool;
pub mod profiler;
pub mod reduce;
pub mod rng;
pub mod scratch;
pub mod telemetry;

pub use backend::{Backend, ExecBackend, NativeCtx, NativeGpu};
pub use cost::{CostCounter, KernelTiming};
pub use device::DeviceSpec;
pub use engine::{DeviceCtx, Gpu, Kernel, LaunchError, LaunchStats, ThreadCtx};
pub use fault::{FaultPlan, FaultStats};
pub use grid::{Dim3, LaunchConfig};
pub use memory::{Buf, ConstBuf, PassMem};
pub use pool::{DeviceHandle, DeviceUsage};
pub use profiler::{
    observe_timeline, timeline_trace_events, transfer_dir_label, Profiler, ProfilerAggregate,
    TimelineEvent, TransferDir,
};
pub use rng::XorWow;
pub use scratch::ScratchArena;
pub use telemetry::{TelemetryConfig, TelemetryRing, TELEMETRY_LANES};

/// Name of the environment variable that used to set the simulator's host
/// thread count. Nothing reads it: both backends run a launch's blocks
/// serially. The constant stays exported only because the end-to-end
/// benchmark (`benchmark/src/main.rs`) names it when it clears the variable
/// for its workload processes; it goes in the next change that edits the
/// benchmark.
pub const SIM_THREADS_ENV: &str = "CDD_SIM_THREADS";
