//! XORWOW — the default pseudo-random generator of NVIDIA cuRAND.
//!
//! The paper generates all device-side randomness (perturbation windows,
//! Fisher–Yates draws, metropolis uniforms) "using the cuRand library".
//! This module implements the same XORWOW algorithm (Marsaglia 2003, as
//! shipped in cuRAND): a 160-bit xorshift state plus a Weyl counter.
//!
//! Each simulated thread owns one stream, seeded from `(seed, stream id)`
//! like `curand_init(seed, subsequence, …)`. State packs into three `u64`
//! words so pipelines can keep it resident in simulated global memory
//! between kernel launches, exactly as CUDA code keeps `curandState` arrays
//! on the device.

use crate::memory::DeviceValue;

/// One XORWOW stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorWow {
    x: u32,
    y: u32,
    z: u32,
    w: u32,
    v: u32,
    d: u32,
}

/// Weyl-sequence increment used by XORWOW.
const WEYL: u32 = 362_437;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl XorWow {
    /// Initialize stream `stream` under `seed` (cf. `curand_init`). Distinct
    /// `(seed, stream)` pairs receive decorrelated states.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = splitmix64(seed ^ splitmix64(stream.wrapping_mul(0x9E37_79B9)));
        let mut word = || {
            s = splitmix64(s);
            // Never allow the all-zero xorshift state.
            (s as u32) | 1
        };
        let mut rng = XorWow { x: word(), y: word(), z: word(), w: word(), v: word(), d: s as u32 };
        // Warm up past any seeding artifacts.
        for _ in 0..8 {
            rng.next_u32();
        }
        rng
    }

    /// Next raw 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let t = self.x ^ (self.x >> 2);
        self.x = self.y;
        self.y = self.z;
        self.z = self.w;
        self.w = self.v;
        self.v = (self.v ^ (self.v << 4)) ^ (t ^ (t << 1));
        self.d = self.d.wrapping_add(WEYL);
        self.d.wrapping_add(self.v)
    }

    /// Uniform float in `[0, 1)` — the "normalization … to obtain a floating
    /// point value in \[0,1\]" the paper applies to cuRAND integers.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random bits → exact dyadic in [0,1).
        let hi = (self.next_u32() >> 6) as u64; // 26 bits
        let lo = (self.next_u32() >> 5) as u64; // 27 bits
        ((hi << 27) | lo) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire-style rejection-free widening;
    /// bias is negligible for the small bounds used by Fisher–Yates).
    #[inline]
    pub fn next_below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        ((self.next_u32() as u64 * bound as u64) >> 32) as u32
    }

    /// Pack into three words (device-resident `curandState` analogue).
    pub fn pack(&self) -> [u64; 3] {
        [
            (self.x as u64) << 32 | self.y as u64,
            (self.z as u64) << 32 | self.w as u64,
            (self.v as u64) << 32 | self.d as u64,
        ]
    }

    /// Unpack from [`pack`](Self::pack)'s representation.
    pub fn unpack(words: [u64; 3]) -> Self {
        XorWow {
            x: (words[0] >> 32) as u32,
            y: words[0] as u32,
            z: (words[1] >> 32) as u32,
            w: words[1] as u32,
            v: (words[2] >> 32) as u32,
            d: words[2] as u32,
        }
    }

    /// The stream stored in `words`: one thread's three words of a `u64`
    /// state buffer as a native pass borrows them ([`crate::PassMem::take`]
    /// lends a `u64` buffer as its `i64` storage words).
    ///
    /// # Panics
    /// Panics unless `words` holds exactly three words.
    pub fn from_words(words: &[i64]) -> Self {
        let words: [i64; 3] = words.try_into().expect("three words per stream");
        XorWow::unpack(words.map(u64::from_word))
    }

    /// Store the stream in one thread's three storage words, as
    /// [`from_words`](Self::from_words) reads them.
    ///
    /// # Panics
    /// Panics unless `words` holds exactly three words.
    pub fn to_words(&self, words: &mut [i64]) {
        words.copy_from_slice(&self.pack().map(u64::to_word));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the raw XORWOW recurrence from Marsaglia's paper, checked
    /// against a direct transcription for a fixed starting state.
    #[test]
    fn recurrence_matches_reference_transcription() {
        let mut rng = XorWow { x: 123456789, y: 362436069, z: 521288629, w: 88675123, v: 5783321, d: 6615241 };
        // Direct transcription of xorwow():
        let mut st = (123456789u32, 362436069u32, 521288629u32, 88675123u32, 5783321u32, 6615241u32);
        let mut reference = || {
            let t = st.0 ^ (st.0 >> 2);
            st.0 = st.1;
            st.1 = st.2;
            st.2 = st.3;
            st.3 = st.4;
            st.4 = (st.4 ^ (st.4 << 4)) ^ (t ^ (t << 1));
            st.5 = st.5.wrapping_add(362437);
            st.5.wrapping_add(st.4)
        };
        for _ in 0..100 {
            assert_eq!(rng.next_u32(), reference());
        }
    }

    #[test]
    fn streams_are_decorrelated() {
        let mut a = XorWow::new(42, 0);
        let mut b = XorWow::new(42, 1);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same <= 1, "{same} collisions in 64 draws");
    }

    #[test]
    fn deterministic_per_seed_and_stream() {
        let mut a = XorWow::new(7, 3);
        let mut b = XorWow::new(7, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn floats_lie_in_unit_interval_and_fill_it() {
        let mut rng = XorWow::new(1, 0);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        let mut sum = 0.0;
        const N: usize = 10_000;
        for _ in 0..N {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
            sum += u;
        }
        assert!(lo < 0.01, "min {lo}");
        assert!(hi > 0.99, "max {hi}");
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn next_below_respects_bound_and_is_roughly_uniform() {
        let mut rng = XorWow::new(9, 9);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.next_below(7) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "bucket {i}: {c}");
        }
    }

    #[test]
    fn pack_unpack_round_trips_mid_stream() {
        let mut rng = XorWow::new(11, 5);
        for _ in 0..17 {
            rng.next_u32();
        }
        let packed = rng.pack();
        let mut restored = XorWow::unpack(packed);
        let mut words = [0i64; 3];
        rng.to_words(&mut words);
        assert_eq!(XorWow::from_words(&words), rng, "storage words round-trip too");
        let mut original = rng;
        for _ in 0..32 {
            assert_eq!(original.next_u32(), restored.next_u32());
        }
    }

    #[test]
    fn state_never_becomes_all_zero() {
        // The xorshift part must avoid the absorbing zero state; seeding
        // guarantees nonzero words.
        for stream in 0..100 {
            let rng = XorWow::new(0, stream); // adversarial zero seed
            assert!(rng.x != 0 || rng.y != 0 || rng.z != 0 || rng.w != 0 || rng.v != 0);
        }
    }
}
