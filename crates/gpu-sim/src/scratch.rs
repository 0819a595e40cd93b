//! Block and thread state for kernels.
//!
//! Beyond its buffer handles, everything a kernel keeps lives in a
//! [`ScratchArena`] it sizes at construction. Data a block's threads share
//! across the phase barrier (shared memory, such as the fitness kernel's
//! staged penalty rates) takes one slot per block, indexed by block id.
//! Working vectors a thread fills and uses within one phase call (registers
//! and local memory, such as the fitness kernel's `seq`/`p`/`m`/`marks`
//! vectors or the perturb and update kernels' permutation rows) take one
//! slot for the whole kernel: both backends run a launch's blocks and
//! threads one at a time, so the threads borrow that slot in turn and one
//! copy of each row stays hot in cache. A block-parallel dispatch would
//! need one working slot per host worker. Slots live as long as the kernel,
//! so vectors are resized once and then reused — a generation performs
//! zero heap allocation in steady state — and a slot still holds what the
//! previous thread or launch left there, so a kernel overwrites what it
//! stages before it reads it.
//!
//! Both backends run one simulated thread at a time, but kernels that own
//! an arena stay `Sync`, so a caller may share one across host threads.
//! Each slot is therefore a [`Mutex`] that a borrow only ever tries: a
//! borrow of a slot that is already borrowed, from another host thread or
//! re-entrantly, panics instead of waiting or aliasing the slot's contents.

use std::fmt;
use std::sync::{Mutex, TryLockError};

/// A fixed-size arena of independently borrowable scratch slots: one per
/// block, or one working slot for the whole kernel. See the module docs.
pub struct ScratchArena<T> {
    slots: Box<[Mutex<T>]>,
}

impl<T: Default> ScratchArena<T> {
    /// An arena with `len` default-initialized slots.
    pub fn new(len: usize) -> Self {
        ScratchArena { slots: (0..len).map(|_| Mutex::default()).collect() }
    }
}

impl<T> ScratchArena<T> {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Run `f` with exclusive access to slot `idx`. Slot contents persist
    /// across calls (that is the point: reuse, not reinitialization), so
    /// `f` must not assume a fresh value. Panics if the slot is already
    /// borrowed. A slot whose last borrower panicked is borrowed as usual:
    /// it holds only scratch, which the next borrower overwrites.
    pub fn with_slot<R>(&self, idx: usize, f: impl FnOnce(&mut T) -> R) -> R {
        let mut slot = match self.slots[idx].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => panic!("scratch slot {idx} borrowed concurrently"),
        };
        f(&mut slot)
    }
}

impl<T> fmt::Debug for ScratchArena<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScratchArena").field("slots", &self.slots.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_persist_across_borrows() {
        let arena: ScratchArena<Vec<u32>> = ScratchArena::new(3);
        arena.with_slot(1, |v| v.extend_from_slice(&[1, 2, 3]));
        let cap = arena.with_slot(1, |v| {
            assert_eq!(v, &[1, 2, 3]);
            v.clear();
            v.capacity()
        });
        assert!(cap >= 3, "clearing keeps the allocation");
        arena.with_slot(0, |v| assert!(v.is_empty()));
        assert_eq!(arena.len(), 3);
        assert!(!arena.is_empty());
    }

    #[test]
    fn concurrent_disjoint_slots_are_independent() {
        let arena: ScratchArena<u64> = ScratchArena::new(8);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let arena = &arena;
                s.spawn(move || {
                    for _ in 0..1000 {
                        arena.with_slot(t, |v| *v += 1);
                        arena.with_slot(t + 4, |v| *v += 2);
                    }
                });
            }
        });
        for t in 0..4 {
            assert_eq!(arena.with_slot(t, |v| *v), 1000);
            assert_eq!(arena.with_slot(t + 4, |v| *v), 2000);
        }
    }

    #[test]
    #[should_panic(expected = "borrowed concurrently")]
    fn reentrant_borrow_of_one_slot_panics() {
        let arena: ScratchArena<u64> = ScratchArena::new(1);
        arena.with_slot(0, |_| {
            arena.with_slot(0, |_| {});
        });
    }

    #[test]
    fn slot_is_released_even_when_the_closure_panics() {
        let arena: ScratchArena<u64> = ScratchArena::new(1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            arena.with_slot(0, |_| panic!("boom"));
        }));
        assert!(caught.is_err());
        arena.with_slot(0, |v| *v = 7);
        assert_eq!(arena.with_slot(0, |v| *v), 7);
    }
}
