//! Simulated device memory: global buffers and constant memory.
//!
//! Storage is untyped (`u64` bit patterns) behind typed [`Buf<T>`] handles,
//! mirroring how CUDA device pointers are raw addresses with types applied
//! by the kernel code.

use std::marker::PhantomData;

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

    /// Drop the type for kernel-argument passing.
    pub fn erased(self) -> ErasedBuf {
        ErasedBuf { id: self.id, len: self.len }
    }
}

/// Untyped buffer handle (a kernel argument, like a `void*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ErasedBuf {
    pub(crate) id: usize,
    pub(crate) len: usize,
}

impl ErasedBuf {
    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-apply a type (the kernel-side cast of a `void*` argument).
    pub fn typed<T>(self) -> Buf<T> {
        Buf::new(self.id, self.len)
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

/// The device's memory: global buffers + constant regions.
#[derive(Debug, Default)]
pub(crate) struct MemoryPool {
    pub(crate) global: Vec<Vec<u64>>,
    pub(crate) constant: Vec<Vec<u64>>,
    pub(crate) constant_bytes: usize,
}

impl MemoryPool {
    pub(crate) fn alloc(&mut self, len: usize) -> usize {
        self.global.push(vec![0u64; len]);
        self.global.len() - 1
    }

    pub(crate) fn alloc_const(&mut self, words: Vec<u64>) -> usize {
        self.constant_bytes += words.len() * 8;
        self.constant.push(words);
        self.constant.len() - 1
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
    fn erased_round_trip() {
        let b: Buf<i64> = Buf::new(3, 10);
        let e = b.erased();
        assert_eq!(e.len(), 10);
        let t: Buf<i64> = e.typed();
        assert_eq!(t, b);
    }

    #[test]
    fn pool_allocates_zeroed() {
        let mut p = MemoryPool::default();
        let id = p.alloc(4);
        assert_eq!(p.global[id], vec![0u64; 4]);
        let cid = p.alloc_const(vec![1, 2]);
        assert_eq!(p.constant[cid], vec![1, 2]);
        assert_eq!(p.constant_bytes, 16);
    }
}
