//! Integration tests of the simulator's execution semantics: bulk memory
//! operations, barrier ordering, cross-block race detection, and the
//! monotonicity of the performance model.

use cuda_sim::{Buf, DeviceCtx, DeviceSpec, Gpu, Kernel, LaunchConfig, LaunchError};

/// Reverses its row via bulk read + bulk write.
struct RowReverse {
    n: usize,
    buf: Buf<i64>,
}
impl Kernel for RowReverse {
    fn name(&self) -> &str {
        "row_reverse"
    }
    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
        let gid = ctx.global_id();
        let mut row = vec![0; self.n];
        ctx.read_slice_into(self.buf, gid * self.n, &mut row);
        row.reverse();
        ctx.write_slice(self.buf, gid * self.n, &row);
    }
}

#[test]
fn bulk_read_write_round_trip() {
    let mut gpu = Gpu::new(DeviceSpec::gt560m());
    gpu.set_race_detection(true);
    let n = 5;
    let buf = gpu.alloc::<i64>(4 * n);
    let data: Vec<i64> = (0..20).collect();
    gpu.h2d(buf, &data);
    let stats = gpu.launch(&RowReverse { n, buf }, LaunchConfig::linear(2, 2)).unwrap();
    let out = gpu.d2h(buf);
    assert_eq!(&out[..5], &[4, 3, 2, 1, 0]);
    assert_eq!(&out[15..], &[19, 18, 17, 16, 15]);
    // Bulk ops charge per element: 4 threads × (5 reads + 5 writes).
    assert_eq!(stats.total_cost.global_transactions, 4 * 10);
}

/// Thread 0 copies row 0 of `src` → row 1 of `dst` with `copy_row`.
struct CopyFirstRow {
    n: usize,
    src: Buf<i64>,
    dst: Buf<i64>,
}
impl Kernel for CopyFirstRow {
    fn name(&self) -> &str {
        "copy_first_row"
    }
    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
        if ctx.global_id() == 0 {
            ctx.copy_row(self.src, 0, self.dst, self.n, self.n);
        }
    }
}

#[test]
fn copy_row_across_and_within_buffers() {
    let mut gpu = Gpu::new(DeviceSpec::gt560m());
    let a = gpu.alloc::<i64>(6);
    gpu.h2d(a, &[7, 8, 9, 0, 0, 0]);
    let b = gpu.alloc::<i64>(6);
    // Across buffers (a → b, offset 3).
    gpu.launch(&CopyFirstRow { n: 3, src: a, dst: b }, LaunchConfig::linear(1, 1)).unwrap();
    assert_eq!(gpu.d2h(b), vec![0, 0, 0, 7, 8, 9]);
    // Within one buffer (a → a, offset 3).
    gpu.launch(&CopyFirstRow { n: 3, src: a, dst: a }, LaunchConfig::linear(1, 1)).unwrap();
    assert_eq!(gpu.d2h(a), vec![7, 8, 9, 7, 8, 9]);
}

/// Block 0 writes location 0 in phase 0; block 1 reads it in phase 1.
/// Phases only order threads *within* a block — this is a true CUDA race.
struct CrossBlockRace {
    buf: Buf<i64>,
}
impl Kernel for CrossBlockRace {
    fn name(&self) -> &str {
        "cross_block_race"
    }
    fn num_phases(&self) -> usize {
        2
    }
    fn phase<C: DeviceCtx>(&self, p: usize, ctx: &mut C) {
        if p == 0 && ctx.block_idx() == 0 && ctx.thread_idx() == 0 {
            ctx.write(self.buf, 0, 1);
        }
        if p == 1 && ctx.block_idx() == 1 && ctx.thread_idx() == 0 {
            let _ = ctx.read(self.buf, 0);
        }
    }
}

#[test]
fn cross_block_access_is_a_race_even_across_phases() {
    let mut gpu = Gpu::new(DeviceSpec::gt560m());
    gpu.set_race_detection(true);
    let buf = gpu.alloc::<i64>(1);
    let err = gpu.launch(&CrossBlockRace { buf }, LaunchConfig::linear(2, 1)).unwrap_err();
    assert!(matches!(err, LaunchError::DataRace(_)), "{err}");
}

/// Same pattern within ONE block: phase 0 write, phase 1 read by another
/// thread — ordered by the barrier, NOT a race.
struct BarrierOrdered {
    buf: Buf<i64>,
}
impl Kernel for BarrierOrdered {
    fn name(&self) -> &str {
        "barrier_ordered"
    }
    fn num_phases(&self) -> usize {
        2
    }
    fn phase<C: DeviceCtx>(&self, p: usize, ctx: &mut C) {
        if p == 0 && ctx.thread_idx() == 0 {
            ctx.write(self.buf, 0, 42);
        }
        if p == 1 && ctx.thread_idx() == 1 {
            let v = ctx.read(self.buf, 0);
            ctx.write(self.buf, 1, v + 1);
        }
    }
}

#[test]
fn barrier_ordered_accesses_are_not_a_race() {
    let mut gpu = Gpu::new(DeviceSpec::gt560m());
    gpu.set_race_detection(true);
    let buf = gpu.alloc::<i64>(2);
    gpu.launch(&BarrierOrdered { buf }, LaunchConfig::linear(1, 2)).unwrap();
    assert_eq!(gpu.d2h(buf), vec![42, 43]);
}

/// A memory-heavy kernel models slower than a light one; doubling work at
/// least doubles neither nothing — monotone model sanity.
struct Toucher {
    reads_per_thread: usize,
    buf: Buf<i64>,
}
impl Kernel for Toucher {
    fn name(&self) -> &str {
        "toucher"
    }
    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
        for i in 0..self.reads_per_thread {
            let _ = ctx.read(self.buf, i % self.buf.len());
        }
    }
}

#[test]
fn model_time_grows_with_work() {
    let mut gpu = Gpu::new(DeviceSpec::gt560m());
    let buf = gpu.alloc::<i64>(64);
    let cfg = LaunchConfig::linear(4, 32);
    let light = gpu.launch(&Toucher { reads_per_thread: 10, buf }, cfg).unwrap();
    let heavy = gpu.launch(&Toucher { reads_per_thread: 1000, buf }, cfg).unwrap();
    assert!(heavy.timing.seconds > light.timing.seconds);
    // 100× the traffic → at least 10× the kernel-only cycle count.
    assert!(heavy.timing.critical_sm_cycles > 10.0 * light.timing.critical_sm_cycles);
}

/// Reads its whole buffer either through the plain global path or the
/// texture path (the paper's future-work proposal).
struct PathReader {
    use_texture: bool,
    buf: Buf<i64>,
}
impl Kernel for PathReader {
    fn name(&self) -> &str {
        "path_reader"
    }
    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
        for i in 0..self.buf.len() {
            if self.use_texture {
                let _ = ctx.read_texture(self.buf, i);
            } else {
                let _ = ctx.read(self.buf, i);
            }
        }
    }
}

/// The texture path returns identical data but models faster for read-only
/// sweeps (spatial cache amortization) — quantifying the paper's
/// future-work suggestion.
#[test]
fn texture_path_is_faster_for_read_only_sweeps() {
    let mut gpu = Gpu::new(DeviceSpec::gt560m());
    gpu.set_race_detection(true);
    let buf = gpu.alloc::<i64>(2048);
    gpu.h2d(buf, &(0..2048).collect::<Vec<i64>>());
    let cfg = LaunchConfig::linear(4, 64);
    let plain = gpu.launch(&PathReader { use_texture: false, buf }, cfg).unwrap();
    let tex = gpu.launch(&PathReader { use_texture: true, buf }, cfg).unwrap();
    assert_eq!(plain.total_cost.global_transactions, 256 * 2048);
    assert_eq!(tex.total_cost.texture_reads, 256 * 2048);
    assert!(
        tex.timing.critical_sm_cycles < plain.timing.critical_sm_cycles,
        "texture {} !< global {}",
        tex.timing.critical_sm_cycles,
        plain.timing.critical_sm_cycles
    );
}

#[test]
fn d2h_range_fetches_exact_window() {
    let mut gpu = Gpu::new(DeviceSpec::gt560m());
    let buf = gpu.alloc::<i64>(10);
    gpu.h2d(buf, &(0..10).collect::<Vec<i64>>());
    let before = gpu.profiler().transfer_seconds();
    let win = gpu.d2h_range(buf, 3, 4);
    assert_eq!(win, vec![3, 4, 5, 6]);
    assert!(gpu.profiler().transfer_seconds() > before);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn d2h_range_checks_bounds() {
    let mut gpu = Gpu::new(DeviceSpec::gt560m());
    let buf = gpu.alloc::<i64>(4);
    let _ = gpu.d2h_range(buf, 2, 3);
}
