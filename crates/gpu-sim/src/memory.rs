//! Simulated device memory: global buffers and constant memory.
//!
//! Storage is untyped words behind typed [`Buf<T>`] handles, mirroring how
//! CUDA device pointers are raw addresses with types applied by the kernel
//! code. A buffer's word width follows its element type: 4-byte and
//! narrower types live in 32-bit words, 8-byte types in 64-bit words
//! ([`DeviceValue::Word`]). A `u32` job-id row therefore moves 4 bytes per
//! job, and a zero-copy window ([`crate::DeviceCtx::global_window`]) over a
//! `u32` or `i64` buffer is a plain subslice of its storage. Every value
//! round-trips through its word unchanged.

use crate::engine::LaunchError;
use crate::fault::ReadFaultStream;
use std::marker::PhantomData;
use std::ops::Range;

mod sealed {
    /// One buffer's storage.
    #[derive(Debug)]
    pub enum Words {
        /// 32-bit words, for element types of 4 bytes or fewer.
        Narrow(Vec<u32>),
        /// 64-bit words, for 8-byte element types.
        Wide(Vec<i64>),
    }

    /// A storage word: `u32` or `i64`.
    pub trait Word: Copy + Default + 'static {
        /// Storage holding `words`.
        fn store(words: Vec<Self>) -> Words;
        /// The words of `w`, which holds words of this width.
        fn of(w: &Words) -> &[Self];
        /// The words of `w`, writable.
        fn of_mut(w: &mut Words) -> &mut [Self];
        /// The word's bits, zero-extended (what a read fault flips).
        fn to_bits(self) -> u64;
        /// The low bits of `bits` as a word.
        fn from_bits(bits: u64) -> Self;
    }

    #[cold]
    fn wrong_width() -> ! {
        panic!("device buffer accessed at the wrong word width")
    }

    macro_rules! impl_word {
        ($w:ty, $width:ident) => {
            impl Word for $w {
                fn store(words: Vec<$w>) -> Words {
                    Words::$width(words)
                }
                #[inline]
                fn of(w: &Words) -> &[$w] {
                    match w {
                        Words::$width(v) => v,
                        _ => wrong_width(),
                    }
                }
                #[inline]
                fn of_mut(w: &mut Words) -> &mut [$w] {
                    match w {
                        Words::$width(v) => v,
                        _ => wrong_width(),
                    }
                }
                #[inline]
                fn to_bits(self) -> u64 {
                    self as u64
                }
                #[inline]
                fn from_bits(bits: u64) -> $w {
                    bits as $w
                }
            }
        };
    }
    impl_word!(u32, Narrow);
    impl_word!(i64, Wide);
}

use sealed::{Word, Words};

/// Value types storable in simulated device memory.
pub trait DeviceValue: Copy + Default + 'static {
    /// The storage word: `u32` for types of 4 bytes or fewer, `i64` for
    /// 8-byte types. `u32` and `i64` are their own words, which is what
    /// lets a window hand them out straight from storage.
    type Word: sealed::Word;
    /// Encode as a storage word.
    fn to_word(self) -> Self::Word;
    /// Decode from a storage word.
    fn from_word(word: Self::Word) -> Self;
}

macro_rules! impl_device_value_int {
    ($word:ty: $($t:ty),*) => {$(
        impl DeviceValue for $t {
            type Word = $word;
            #[inline]
            fn to_word(self) -> $word { self as $word }
            #[inline]
            fn from_word(word: $word) -> Self { word as $t }
        }
    )*};
}
impl_device_value_int!(u32: u8, u16, u32, i8, i16, i32);
impl_device_value_int!(i64: u64, i64, usize);

impl DeviceValue for f32 {
    type Word = u32;
    #[inline]
    fn to_word(self) -> u32 {
        self.to_bits()
    }
    #[inline]
    fn from_word(word: u32) -> Self {
        f32::from_bits(word)
    }
}

impl DeviceValue for f64 {
    type Word = i64;
    #[inline]
    fn to_word(self) -> i64 {
        self.to_bits() as i64
    }
    #[inline]
    fn from_word(word: i64) -> Self {
        f64::from_bits(word as u64)
    }
}

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
    global: Vec<Words>,
    constant: Vec<Words>,
    constant_bytes: usize,
}

#[cold]
#[track_caller]
fn access_out_of_bounds(buf: usize, len: usize, idx: usize) -> ! {
    panic!("global memory access out of bounds: buffer {buf} has {len} elements, index {idx}")
}

/// The index range `start..start + len` of buffer `buf`, which has `have`
/// elements, checked.
#[inline]
fn checked_range(buf: usize, have: usize, start: usize, len: usize) -> Range<usize> {
    match start.checked_add(len) {
        Some(end) if end <= have => start..end,
        _ => panic!(
            "global memory slice out of bounds: buffer {buf} has {have} elements, \
             range {start}..+{len}"
        ),
    }
}

/// Decode `word` as a `T`, through `fault` when the simulator injects read
/// faults: a flip hits one of the low `8·size_of::<T>()` bits, whatever
/// the word's width.
#[inline]
fn observed<T: DeviceValue>(word: T::Word, fault: &mut ReadFaultStream) -> T {
    let width = 8 * std::mem::size_of::<T>() as u32;
    T::from_word(T::Word::from_bits(fault.observe_read(word.to_bits(), width)))
}

/// The words of `w`, which stores `T`s, writable.
#[inline]
fn words_of_mut<T: DeviceValue>(w: &mut Words) -> &mut [T::Word] {
    T::Word::of_mut(w)
}

impl MemoryPool {
    /// Allocate a zero-initialized global buffer of `len` elements.
    pub(crate) fn alloc<T: DeviceValue>(&mut self, len: usize) -> Buf<T> {
        self.global.push(T::Word::store(vec![T::Word::default(); len]));
        Buf::new(self.global.len() - 1, len)
    }

    /// Allocate and fill a constant region, unless it would take constant
    /// memory past `limit_bytes` (8 bytes per element, whatever its width).
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
        self.constant.push(T::Word::store(data.iter().map(|v| v.to_word()).collect()));
        Ok(ConstBuf::new(self.constant.len() - 1, data.len()))
    }

    /// The storage words of `buf`.
    #[inline]
    fn storage<T: DeviceValue>(&self, buf: Buf<T>) -> &[T::Word] {
        T::Word::of(&self.global[buf.id])
    }

    /// The storage words of `buf`, writable.
    #[inline]
    fn storage_mut<T: DeviceValue>(&mut self, buf: Buf<T>) -> &mut [T::Word] {
        T::Word::of_mut(&mut self.global[buf.id])
    }

    /// Copy host data into a buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != buf.len()`.
    pub(crate) fn h2d<T: DeviceValue>(&mut self, buf: Buf<T>, data: &[T]) {
        assert_eq!(data.len(), buf.len, "h2d length mismatch");
        self.write_slice(buf, 0, data);
    }

    /// Copy a whole buffer back to the host.
    pub(crate) fn d2h<T: DeviceValue>(&self, buf: Buf<T>) -> Vec<T> {
        self.d2h_range(buf, 0, buf.len)
    }

    /// Copy `len` elements of a buffer from `start` back to the host.
    pub(crate) fn d2h_range<T: DeviceValue>(
        &self,
        buf: Buf<T>,
        start: usize,
        len: usize,
    ) -> Vec<T> {
        assert!(start + len <= buf.len, "d2h_range out of bounds");
        let mut out = vec![T::default(); len];
        self.read_slice_into(buf, start, &mut out, None);
        out
    }

    /// Element `idx` of `buf`, through `fault` if the simulator injects
    /// read faults.
    #[inline]
    pub(crate) fn read<T: DeviceValue>(
        &self,
        buf: Buf<T>,
        idx: usize,
        fault: Option<&mut ReadFaultStream>,
    ) -> T {
        let words = self.storage(buf);
        let word = match words.get(idx) {
            Some(&w) => w,
            None => access_out_of_bounds(buf.id, words.len(), idx),
        };
        match fault {
            Some(f) => observed(word, f),
            None => T::from_word(word),
        }
    }

    /// Overwrite element `idx` of `buf`.
    #[inline]
    pub(crate) fn write<T: DeviceValue>(&mut self, buf: Buf<T>, idx: usize, value: T) {
        let words = self.storage_mut(buf);
        let len = words.len();
        match words.get_mut(idx) {
            Some(w) => *w = value.to_word(),
            None => access_out_of_bounds(buf.id, len, idx),
        }
    }

    /// Read `dst.len()` consecutive elements of `buf` from `start`, in
    /// order, each through `fault` if the simulator injects read faults.
    #[inline]
    pub(crate) fn read_slice_into<T: DeviceValue>(
        &self,
        buf: Buf<T>,
        start: usize,
        dst: &mut [T],
        fault: Option<&mut ReadFaultStream>,
    ) {
        let words = self.storage(buf);
        let words = &words[checked_range(buf.id, words.len(), start, dst.len())];
        match fault {
            Some(f) => {
                for (d, &w) in dst.iter_mut().zip(words) {
                    *d = observed(w, f);
                }
            }
            None => {
                for (d, &w) in dst.iter_mut().zip(words) {
                    *d = T::from_word(w);
                }
            }
        }
    }

    /// Write `src` to consecutive elements of `buf` from `start`.
    #[inline]
    pub(crate) fn write_slice<T: DeviceValue>(&mut self, buf: Buf<T>, start: usize, src: &[T]) {
        let words = self.storage_mut(buf);
        let range = checked_range(buf.id, words.len(), start, src.len());
        for (w, &v) in words[range].iter_mut().zip(src) {
            *w = v.to_word();
        }
    }

    /// `len` elements of `buf` from `start`, borrowed in place. Only `u32`
    /// and `i64` buffers qualify: their elements are their storage words.
    #[inline]
    pub(crate) fn window<T: DeviceValue<Word = T>>(
        &self,
        buf: Buf<T>,
        start: usize,
        len: usize,
    ) -> &[T] {
        let words = self.storage(buf);
        &words[checked_range(buf.id, words.len(), start, len)]
    }

    /// Windows on `N` rows `(buf, start, len)` of distinct `u32` or `i64`
    /// buffers, all borrowed in place and writable.
    ///
    /// # Panics
    /// Panics if two rows name the same buffer or a row is out of bounds.
    pub(crate) fn windows_mut<T: DeviceValue<Word = T>, const N: usize>(
        &mut self,
        rows: [(Buf<T>, usize, usize); N],
    ) -> [&mut [T]; N] {
        let storage = match self.global.get_disjoint_mut(rows.map(|(buf, _, _)| buf.id)) {
            Ok(storage) => storage,
            Err(e) => panic!("writable windows need distinct buffers: {e}"),
        };
        let mut windows = storage.into_iter().zip(rows).map(|(words, (buf, start, len))| {
            let words = words_of_mut::<T>(words);
            let range = checked_range(buf.id, words.len(), start, len);
            &mut words[range]
        });
        std::array::from_fn(|_| windows.next().expect("one window per row"))
    }

    /// Copy `count` elements from `src` at `src_start` to `dst` at
    /// `dst_start` with memmove semantics: within one buffer, the
    /// destination receives the source range as it was before the copy,
    /// whichever way the two ranges overlap.
    pub(crate) fn copy<T: DeviceValue>(
        &mut self,
        src: Buf<T>,
        src_start: usize,
        dst: Buf<T>,
        dst_start: usize,
        count: usize,
    ) {
        let from = checked_range(src.id, self.storage(src).len(), src_start, count);
        let to = checked_range(dst.id, self.storage(dst).len(), dst_start, count);
        if src.id == dst.id {
            self.storage_mut(src).copy_within(from, to.start);
        } else {
            let [s, d] = self.global.get_disjoint_mut([src.id, dst.id]).expect("distinct buffers");
            T::Word::of_mut(d)[to].copy_from_slice(&T::Word::of(s)[from]);
        }
    }

    /// Element `idx` of constant region `cb`.
    #[inline]
    pub(crate) fn read_const<T: DeviceValue>(&self, cb: ConstBuf<T>, idx: usize) -> T {
        let words = T::Word::of(&self.constant[cb.id]);
        match words.get(idx) {
            Some(&w) => T::from_word(w),
            None => panic!(
                "constant memory access out of bounds: region {} has {} elements, index {idx}",
                cb.id,
                words.len()
            ),
        }
    }

    /// `atomicMin` on a signed element, applied in place. Returns the
    /// element's previous value.
    pub(crate) fn atomic_min_i64(&mut self, buf: Buf<i64>, idx: usize, value: i64) -> i64 {
        let old = self.read(buf, idx, None);
        self.write(buf, idx, old.min(value));
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The storage bits of each value: equal bits, equal values.
    fn bits<T: DeviceValue>(values: &[T]) -> Vec<u64> {
        values.iter().map(|v| v.to_word().to_bits()).collect()
    }

    /// `values` come back bit for bit from every pool path: h2d/d2h,
    /// per-element write/read, slice write/read, and copies across and
    /// within buffers.
    fn assert_pool_round_trips<T: DeviceValue>(values: &[T]) {
        let n = values.len();
        let want = bits(values);
        let mut p = MemoryPool::default();
        let a = p.alloc::<T>(n);
        p.h2d(a, values);
        assert_eq!(bits(&p.d2h(a)), want, "h2d/d2h");
        let b = p.alloc::<T>(2 * n);
        for (i, &v) in values.iter().enumerate() {
            p.write(b, i, v);
        }
        let read: Vec<T> = (0..n).map(|i| p.read(b, i, None)).collect();
        assert_eq!(bits(&read), want, "write/read");
        p.write_slice(b, n, values);
        let mut row = vec![T::default(); n];
        p.read_slice_into(b, n, &mut row, None);
        assert_eq!(bits(&row), want, "write_slice/read_slice_into");
        let c = p.alloc::<T>(2 * n);
        p.copy(a, 0, c, n, n);
        p.copy(c, n, c, 0, n);
        assert_eq!(bits(&p.d2h(c)), [want.clone(), want].concat(), "copy across and within");
    }

    #[test]
    fn bit_round_trips() {
        assert_eq!(i64::from_word((-5i64).to_word()), -5);
        assert_eq!(u32::from_word(7u32.to_word()), 7);
        assert_eq!(f64::from_word((0.25f64).to_word()), 0.25);
        assert_eq!(f32::from_word((-1.5f32).to_word()), -1.5);
        assert_eq!(i32::from_word((-1i32).to_word()), -1);
        let nan = f32::from_bits(0x7fc0_1234);
        assert_pool_round_trips(&[u32::MAX, 0, 7]);
        assert_pool_round_trips(&[i32::MIN, -1, i32::MAX]);
        assert_pool_round_trips(&[u16::MAX, 1]);
        assert_pool_round_trips(&[i8::MIN, -1, i8::MAX]);
        assert_pool_round_trips(&[-0.0f32, nan, f32::MIN_POSITIVE]);
        assert_pool_round_trips(&[i64::MIN, -1, i64::MAX]);
        assert_pool_round_trips(&[u64::MAX, 1 << 63]);
        assert_pool_round_trips(&[-0.0f64, f64::from_bits(0x7ff8_0000_dead_beef)]);
        assert_pool_round_trips(&[usize::MAX, 3]);
    }

    #[test]
    fn negative_i64_survives() {
        let v: i64 = i64::MIN + 3;
        assert_eq!(i64::from_word(v.to_word()), v);
    }

    #[test]
    fn words_are_as_wide_as_their_elements() {
        const N: usize = 96;
        let storage_bytes = |p: &MemoryPool, id: usize| match &p.global[id] {
            Words::Narrow(w) => std::mem::size_of_val(w.as_slice()),
            Words::Wide(w) => std::mem::size_of_val(w.as_slice()),
        };
        let mut p = MemoryPool::default();
        let ids = p.alloc::<u32>(N);
        assert_eq!(storage_bytes(&p, ids.id), 4 * N, "a u32 buffer stores 4 bytes per element");
        let flags = p.alloc::<u8>(N);
        assert_eq!(storage_bytes(&p, flags.id), 4 * N);
        let data = p.alloc::<i64>(N);
        assert_eq!(storage_bytes(&p, data.id), 8 * N);
    }

    #[test]
    fn writable_windows_edit_their_rows_in_place() {
        let mut p = MemoryPool::default();
        let rows = p.alloc::<u32>(6);
        p.h2d(rows, &[0, 1, 2, 3, 4, 5]);
        let other = p.alloc::<u32>(3);
        p.h2d(other, &[7, 8, 9]);
        let [mine, theirs] = p.windows_mut([(rows, 3, 3), (other, 0, 3)]);
        mine.copy_from_slice(theirs);
        mine.swap(0, 2);
        assert_eq!(p.d2h(rows), vec![0, 1, 2, 9, 8, 7]);
        assert_eq!(p.d2h(other), vec![7, 8, 9], "the other row is only read");
    }

    #[test]
    #[should_panic(expected = "distinct buffers")]
    fn writable_windows_refuse_one_buffer_twice() {
        let mut p = MemoryPool::default();
        let rows = p.alloc::<u32>(6);
        p.windows_mut([(rows, 0, 3), (rows, 3, 3)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn writable_windows_are_bounds_checked() {
        let mut p = MemoryPool::default();
        let rows = p.alloc::<u32>(6);
        p.windows_mut([(rows, 4, 3)]);
    }

    #[test]
    fn pool_allocates_zeroed() {
        let mut p = MemoryPool::default();
        let buf = p.alloc::<i64>(4);
        assert_eq!(p.d2h(buf), vec![0; 4]);
        let c = p.alloc_const(&[1i64, 2], 64).unwrap();
        assert_eq!((p.read_const(c, 0), p.read_const(c, 1)), (1, 2));
        assert_eq!(p.constant_bytes, 16);
        let narrow = p.alloc_const(&[3u32], 64).unwrap();
        assert_eq!(p.read_const(narrow, 0), 3);
        assert_eq!(p.constant_bytes, 24, "the limit counts 8 bytes per element");
    }
}
