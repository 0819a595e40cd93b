//! Simulated device memory: global buffers and constant memory.
//!
//! Storage is untyped (`u64` bit patterns) behind typed [`Buf<T>`] handles,
//! mirroring how CUDA device pointers are raw addresses with types applied
//! by the kernel code.

use crate::engine::LaunchError;
use std::marker::PhantomData;
use std::ops::Range;

/// Value types storable in simulated device memory.
pub trait DeviceValue: Copy + Default + 'static {
    /// Encode as a 64-bit pattern.
    fn to_bits(self) -> u64;
    /// Decode from a 64-bit pattern.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_device_value_int {
    ($($t:ty),*) => {$(
        impl DeviceValue for $t {
            #[inline]
            fn to_bits(self) -> u64 { self as u64 }
            #[inline]
            fn from_bits(bits: u64) -> Self { bits as $t }
        }
    )*};
}
impl_device_value_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize);

impl DeviceValue for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl DeviceValue for f32 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

mod sealed {
    pub trait Sealed {}
}

/// Integer device values whose storage word, borrowed in place, still reads
/// as the value: `u32` job ids are stored zero-extended, so their words read
/// as `u64`; `i64` problem data reads as itself (see
/// [`DeviceValue::to_bits`]). This is what lets a zero-copy window
/// ([`crate::DeviceCtx::global_window`]) hand out `&[Self::Word]` straight
/// from word storage. Sealed, because the window reinterprets raw words as
/// `Word`, which is sound only for the two 8-byte integer types.
pub trait WordValue: DeviceValue + sealed::Sealed {
    /// How one storage word of this type reads in place: `u64` or `i64`.
    type Word: Copy + 'static;
}

macro_rules! impl_word_value {
    ($($t:ty => $w:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl WordValue for $t {
            type Word = $w;
        }
    )*};
}
impl_word_value!(u32 => u64, i64 => i64);

/// Typed handle to a global-memory buffer (cheap to copy, like a device
/// pointer).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Buf<T> {
    pub(crate) id: usize,
    pub(crate) len: usize,
    _ph: PhantomData<fn() -> T>,
}

impl<T> Clone for Buf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Buf<T> {}

impl<T> Buf<T> {
    pub(crate) fn new(id: usize, len: usize) -> Self {
        Buf { id, len, _ph: PhantomData }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Typed handle to a constant-memory region (read-only on device, broadcast
/// reads — the paper stores `d` and `n` there "to benefit from its broadcast
/// mechanism").
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct ConstBuf<T> {
    pub(crate) id: usize,
    pub(crate) len: usize,
    _ph: PhantomData<fn() -> T>,
}

impl<T> Clone for ConstBuf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ConstBuf<T> {}

impl<T> ConstBuf<T> {
    pub(crate) fn new(id: usize, len: usize) -> Self {
        ConstBuf { id, len, _ph: PhantomData }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The device's memory: global buffers + constant regions. It is the one
/// owner of device memory: host transfers and every kernel access go
/// through it, and it bounds-checks each one.
#[derive(Debug, Default)]
pub(crate) struct MemoryPool {
    global: Vec<Vec<u64>>,
    constant: Vec<Vec<u64>>,
    constant_bytes: usize,
}

#[cold]
#[track_caller]
fn access_out_of_bounds(buf: usize, len: usize, idx: usize) -> ! {
    panic!("global memory access out of bounds: buffer {buf} has {len} elements, index {idx}")
}

impl MemoryPool {
    /// Allocate a zero-initialized global buffer of `len` elements.
    pub(crate) fn alloc<T>(&mut self, len: usize) -> Buf<T> {
        self.global.push(vec![0u64; len]);
        Buf::new(self.global.len() - 1, len)
    }

    /// Allocate and fill a constant region, unless it would take constant
    /// memory past `limit_bytes` (8 bytes per element).
    pub(crate) fn alloc_const<T: DeviceValue>(
        &mut self,
        data: &[T],
        limit_bytes: usize,
    ) -> Result<ConstBuf<T>, LaunchError> {
        let requested = data.len() * 8;
        let available = limit_bytes.saturating_sub(self.constant_bytes);
        if requested > available {
            return Err(LaunchError::ConstantMemoryExceeded { requested, available });
        }
        self.constant_bytes += requested;
        self.constant.push(data.iter().map(|v| v.to_bits()).collect());
        Ok(ConstBuf::new(self.constant.len() - 1, data.len()))
    }

    /// Copy host data into a buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != buf.len()`.
    pub(crate) fn h2d<T: DeviceValue>(&mut self, buf: Buf<T>, data: &[T]) {
        assert_eq!(data.len(), buf.len, "h2d length mismatch");
        for (slot, v) in self.global[buf.id].iter_mut().zip(data) {
            *slot = v.to_bits();
        }
    }

    /// Copy a whole buffer back to the host.
    pub(crate) fn d2h<T: DeviceValue>(&self, buf: Buf<T>) -> Vec<T> {
        self.global[buf.id].iter().map(|&bits| T::from_bits(bits)).collect()
    }

    /// Copy `len` elements of a buffer from `start` back to the host.
    pub(crate) fn d2h_range<T: DeviceValue>(
        &self,
        buf: Buf<T>,
        start: usize,
        len: usize,
    ) -> Vec<T> {
        assert!(start + len <= buf.len, "d2h_range out of bounds");
        self.global[buf.id][start..start + len].iter().map(|&bits| T::from_bits(bits)).collect()
    }

    /// Word `idx` of global buffer `buf`.
    #[inline]
    pub(crate) fn word(&self, buf: usize, idx: usize) -> u64 {
        let b = &self.global[buf];
        match b.get(idx) {
            Some(&w) => w,
            None => access_out_of_bounds(buf, b.len(), idx),
        }
    }

    #[inline]
    fn word_mut(&mut self, buf: usize, idx: usize) -> &mut u64 {
        let b = &mut self.global[buf];
        let len = b.len();
        match b.get_mut(idx) {
            Some(w) => w,
            None => access_out_of_bounds(buf, len, idx),
        }
    }

    /// Overwrite word `idx` of global buffer `buf`.
    #[inline]
    pub(crate) fn set_word(&mut self, buf: usize, idx: usize, bits: u64) {
        *self.word_mut(buf, idx) = bits;
    }

    /// The index range `start..start + len` of buffer `buf`, checked.
    #[inline]
    fn range(&self, buf: usize, start: usize, len: usize) -> Range<usize> {
        let have = self.global[buf].len();
        match start.checked_add(len) {
            Some(end) if end <= have => start..end,
            _ => panic!(
                "global memory slice out of bounds: buffer {buf} has {have} elements, \
                 range {start}..+{len}"
            ),
        }
    }

    /// `len` words of buffer `buf` from `start`.
    #[inline]
    pub(crate) fn words(&self, buf: usize, start: usize, len: usize) -> &[u64] {
        let r = self.range(buf, start, len);
        &self.global[buf][r]
    }

    /// `len` words of buffer `buf` from `start`, writable.
    #[inline]
    pub(crate) fn words_mut(&mut self, buf: usize, start: usize, len: usize) -> &mut [u64] {
        let r = self.range(buf, start, len);
        &mut self.global[buf][r]
    }

    /// Copy `count` words from `src` at `src_start` to `dst` at `dst_start`
    /// with memmove semantics: within one buffer, the destination receives
    /// the source range as it was before the copy, whichever way the two
    /// ranges overlap.
    pub(crate) fn copy_words(
        &mut self,
        src: usize,
        src_start: usize,
        dst: usize,
        dst_start: usize,
        count: usize,
    ) {
        let from = self.range(src, src_start, count);
        let to = self.range(dst, dst_start, count);
        if src == dst {
            self.global[src].copy_within(from, to.start);
        } else {
            let [s, d] = self.global.get_disjoint_mut([src, dst]).expect("distinct buffers");
            d[to].copy_from_slice(&s[from]);
        }
    }

    /// Word `idx` of constant region `region`.
    #[inline]
    pub(crate) fn const_word(&self, region: usize, idx: usize) -> u64 {
        let c = &self.constant[region];
        match c.get(idx) {
            Some(&w) => w,
            None => panic!(
                "constant memory access out of bounds: region {region} has {} elements, \
                 index {idx}",
                c.len()
            ),
        }
    }

    /// `atomicMin` on a signed word, applied in place. Returns the word's
    /// previous value.
    pub(crate) fn atomic_min_i64(&mut self, buf: usize, idx: usize, value: i64) -> i64 {
        let word = self.word_mut(buf, idx);
        let old = i64::from_bits(*word);
        *word = old.min(value).to_bits();
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trips() {
        assert_eq!(i64::from_bits((-5i64).to_bits()), -5);
        assert_eq!(u32::from_bits(7u32.to_bits()), 7);
        assert_eq!(f64::from_bits((0.25f64).to_bits()), 0.25);
        assert_eq!(f32::from_bits((-1.5f32).to_bits()), -1.5);
        assert_eq!(i32::from_bits((-1i32).to_bits()), -1);
    }

    #[test]
    fn negative_i64_survives() {
        let v: i64 = i64::MIN + 3;
        assert_eq!(i64::from_bits(v.to_bits()), v);
    }

    #[test]
    fn pool_allocates_zeroed() {
        let mut p = MemoryPool::default();
        let buf = p.alloc::<i64>(4);
        assert_eq!(p.d2h(buf), vec![0; 4]);
        let c = p.alloc_const(&[1i64, 2], 64).unwrap();
        assert_eq!((p.const_word(c.id, 0), p.const_word(c.id, 1)), (1, 2));
        assert_eq!(p.constant_bytes, 16);
    }
}
