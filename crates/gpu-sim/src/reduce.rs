//! The paper's fourth kernel finds the ensemble-best solution with an
//! atomic minimization ("the minimal value among all the threads is
//! calculated by performing an atomic minimization function"). This module
//! holds that kernel, an argmin over packed `(value, index)` keys, with the
//! helpers the pipelines use to check the packing's domain and to pack and
//! unpack keys.

use crate::engine::{DeviceCtx, Kernel};
use crate::memory::Buf;

/// Kernel: argmin via `atomicMin` on a packed `(value << 20 | index)` key.
///
/// Packing keeps the reduction a single atomic (as on real hardware, where a
/// 64-bit `atomicMin` over value-major packed keys is the standard argmin
/// trick). Requires `index < 2^20` threads and `|value| < 2^42`; both hold
/// for every experiment in the paper (≤ 4096 threads, objectives ≤ 10⁹).
pub struct AtomicArgminKernel {
    /// Fitness values, one per thread.
    pub values: Buf<i64>,
    /// Single-element packed output; pre-seed with `i64::MAX`.
    pub out: Buf<i64>,
}

/// Bits reserved for the index in the packed argmin key.
pub const ARGMIN_INDEX_BITS: u32 = 20;

/// Exclusive upper bound on the thread index a packed argmin key can carry.
pub const ARGMIN_MAX_INDEX: usize = 1 << ARGMIN_INDEX_BITS;

/// Exclusive upper bound on `|value|` for a packed argmin key.
pub const ARGMIN_MAX_ABS_VALUE: i64 = 1 << (62 - ARGMIN_INDEX_BITS);

/// Validate that an argmin reduction over `index_count` slots whose values
/// can reach `max_abs_value` in magnitude fits the packed-key encoding.
///
/// Call this at **pipeline setup** with a worst-case objective bound: a
/// value ≥ 2^42 or an ensemble ≥ 2^20 would silently truncate into the
/// neighboring field and crown the wrong winner, so the pack limits must be
/// rejected loudly before any kernel runs. (`max_abs_value` is an `i128` so
/// callers can pass an over-approximated bound computed without overflow.)
pub fn argmin_domain_check(max_abs_value: i128, index_count: usize) -> Result<(), String> {
    if index_count > ARGMIN_MAX_INDEX {
        return Err(format!(
            "argmin ensemble too large for the packed reduction: {index_count} slots exceed \
             the {ARGMIN_INDEX_BITS}-bit index field (max {ARGMIN_MAX_INDEX})"
        ));
    }
    if max_abs_value >= ARGMIN_MAX_ABS_VALUE as i128 {
        return Err(format!(
            "argmin objective bound too large for the packed reduction: |value| can reach \
             {max_abs_value}, which exceeds the {}-bit value field (max {})",
            62 - ARGMIN_INDEX_BITS,
            ARGMIN_MAX_ABS_VALUE - 1
        ));
    }
    Ok(())
}

/// Pack a `(value, index)` pair into an order-preserving i64 key.
///
/// # Panics
/// Panics when the pair exceeds the field widths — an out-of-range pack
/// would silently corrupt the argmin, so it is rejected even in release
/// builds. Pipelines validate their whole domain up front with
/// [`argmin_domain_check`] and never reach this panic.
pub fn pack_argmin(value: i64, index: usize) -> i64 {
    assert!(
        index < ARGMIN_MAX_INDEX,
        "pack_argmin index {index} exceeds the {ARGMIN_INDEX_BITS}-bit field \
         (max {ARGMIN_MAX_INDEX})"
    );
    assert!(
        value.unsigned_abs() < ARGMIN_MAX_ABS_VALUE as u64,
        "pack_argmin value {value} exceeds the {}-bit field (|value| must stay below {})",
        62 - ARGMIN_INDEX_BITS,
        ARGMIN_MAX_ABS_VALUE
    );
    (value << ARGMIN_INDEX_BITS) | index as i64
}

/// Invert [`pack_argmin`].
pub fn unpack_argmin(key: i64) -> (i64, usize) {
    (key >> ARGMIN_INDEX_BITS, (key & ((1 << ARGMIN_INDEX_BITS) - 1)) as usize)
}

impl Kernel for AtomicArgminKernel {
    fn name(&self) -> &str {
        "reduce_atomic_argmin"
    }

    fn phase<C: DeviceCtx>(&self, _p: usize, ctx: &mut C) {
        let gid = ctx.global_id();
        if gid < self.values.len() {
            let mut v = ctx.read(self.values, gid);
            if ctx.fault_injection_active() {
                // A flipped read can exceed the packable range; saturate so
                // the key stays order-preserving (a corrupted extreme loses
                // the argmin, and recovery layers re-validate the winner).
                const CAP: i64 = (1 << (62 - ARGMIN_INDEX_BITS)) - 1;
                v = v.clamp(-CAP, CAP);
            }
            ctx.charge_alu(2); // shift + or
            ctx.atomic_min_i64(self.out, 0, pack_argmin(v, gid));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::engine::Gpu;
    use crate::grid::LaunchConfig;

    /// `(min value, index)` of `values` from one `AtomicArgminKernel`
    /// launch in blocks of `block_size`.
    fn argmin(gpu: &mut Gpu, values: Buf<i64>, block_size: usize) -> (i64, usize) {
        let out = gpu.alloc::<i64>(1);
        gpu.h2d(out, &[i64::MAX]);
        let kernel = AtomicArgminKernel { values, out };
        gpu.launch(&kernel, LaunchConfig::cover(values.len(), block_size)).unwrap();
        unpack_argmin(gpu.d2h(out)[0])
    }

    #[test]
    fn pack_preserves_order() {
        // Smaller value always wins regardless of index.
        assert!(pack_argmin(5, 999) < pack_argmin(6, 0));
        // Ties break toward the smaller index (deterministic).
        assert!(pack_argmin(5, 3) < pack_argmin(5, 7));
        // Negative values order correctly.
        assert!(pack_argmin(-10, 0) < pack_argmin(-9, 0));
        assert!(pack_argmin(-10, 5) < pack_argmin(0, 0));
    }

    #[test]
    fn unpack_inverts_pack() {
        for (v, i) in [(0i64, 0usize), (123, 45), (-7, 1023), (1 << 30, 99)] {
            assert_eq!(unpack_argmin(pack_argmin(v, i)), (v, i));
        }
    }

    #[test]
    fn domain_check_accepts_paper_scale_and_rejects_overflow() {
        // Every experiment in the paper fits comfortably.
        assert!(argmin_domain_check(1_000_000_000, 768).is_ok());
        assert!(argmin_domain_check((ARGMIN_MAX_ABS_VALUE - 1) as i128, ARGMIN_MAX_INDEX).is_ok());
        // One past either field overflows with a clear message.
        let too_many = argmin_domain_check(0, ARGMIN_MAX_INDEX + 1).unwrap_err();
        assert!(too_many.contains("ensemble too large"), "{too_many}");
        let too_big = argmin_domain_check(ARGMIN_MAX_ABS_VALUE as i128, 1).unwrap_err();
        assert!(too_big.contains("objective bound too large"), "{too_big}");
    }

    #[test]
    #[should_panic(expected = "pack_argmin index")]
    fn pack_rejects_oversized_index_in_release_builds_too() {
        let _ = pack_argmin(0, ARGMIN_MAX_INDEX);
    }

    #[test]
    #[should_panic(expected = "pack_argmin value")]
    fn pack_rejects_oversized_value_in_release_builds_too() {
        let _ = pack_argmin(ARGMIN_MAX_ABS_VALUE, 0);
    }

    #[test]
    fn device_argmin_matches_host() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        let values = gpu.alloc::<i64>(768);
        let host: Vec<i64> = (0..768).map(|i| (((i * 7919) % 4093) as i64) - 50).collect();
        gpu.h2d(values, &host);
        let (v, idx) = argmin(&mut gpu, values, 192);
        let host_min = *host.iter().min().unwrap();
        assert_eq!(v, host_min);
        assert_eq!(host[idx], host_min);
    }

    #[test]
    fn argmin_with_race_detection_is_clean() {
        let mut gpu = Gpu::new(DeviceSpec::gt560m());
        gpu.set_race_detection(true);
        let values = gpu.alloc::<i64>(64);
        gpu.h2d(values, &(0..64).map(|i| 100 - i as i64).collect::<Vec<_>>());
        let (v, idx) = argmin(&mut gpu, values, 32);
        assert_eq!(v, 37);
        assert_eq!(idx, 63);
    }
}
