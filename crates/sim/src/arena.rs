//! Slab allocator for hot-path byte buffers.
//!
//! Every packet path in the workspace ultimately builds wire images in
//! heap-backed byte buffers (`bytes::BytesMut` → `bytes::Bytes`). Before
//! this module, each buffer was a fresh `Vec<u8>` plus a fresh refcount
//! box — two allocator round-trips per serialized packet, report, FEC
//! shard and NDJSON event. The arena turns those into recycling: a
//! per-thread slab of uniquely-owned `Rc<Vec<u8>>` storage blocks that are
//! handed out by [`acquire`], and returned whole (refcount box *and*
//! vector capacity) by [`recycle`] when their last owner drops.
//!
//! # Lifetime rules (see DESIGN.md §14.1)
//!
//! * A block is recycled only when uniquely owned, so holding a `Bytes`
//!   clone across ticks (jitter buffers, RTX history, reassembly windows)
//!   is always safe: the block simply returns to the slab later.
//! * Blocks are thread-confined. The pointer is an `Rc`, so a block (and
//!   every `bytes::Bytes` over it) is `!Send` / `!Sync`: the compiler
//!   guarantees it is recycled into the slab of the thread that acquired
//!   it, and cloning or dropping an owner is a plain increment, not a
//!   locked one. A simulation runs on one thread from construction to its
//!   `RunMetrics`, which carry no buffers, so nothing needs to cross.
//! * The slab is bounded ([`MAX_POOLED_BUFFERS`] blocks of at most
//!   [`MAX_POOLED_CAPACITY`] bytes), so pathological buffers are given
//!   back to the system allocator instead of pinning memory.
//!
//! Determinism: recycling reuses *capacity*, never contents — every
//! [`acquire`] returns a cleared vector, so simulation results cannot
//! depend on what previously occupied a block. The `perf_equivalence`
//! suite and the engine's jobs=N bit-identity tests hold this to account.

use std::cell::RefCell;
use std::rc::Rc;

/// Maximum number of storage blocks kept per thread.
pub const MAX_POOLED_BUFFERS: usize = 256;

/// Blocks larger than this are never pooled (returned to the system).
pub const MAX_POOLED_CAPACITY: usize = 1 << 20;

thread_local! {
    static POOL: RefCell<Vec<Rc<Vec<u8>>>> = const { RefCell::new(Vec::new()) };
    /// Per-thread shared empty block: a refcount-only placeholder for
    /// "no storage" (e.g. a frozen-out `BytesMut`).
    static EMPTY: Rc<Vec<u8>> = Rc::new(Vec::new());
}

/// A refcount-only empty storage block. Never recycled (capacity 0) and
/// never uniquely owned (the thread keeps one reference), so it is safe
/// to use as a placeholder anywhere a real block is not needed.
pub fn empty() -> Rc<Vec<u8>> {
    EMPTY.with(Rc::clone)
}

/// Take a cleared, uniquely-owned storage block with at least
/// `min_capacity` bytes of capacity, reusing a pooled block when one is
/// available.
pub fn acquire(min_capacity: usize) -> Rc<Vec<u8>> {
    let mut rc = POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_else(|| Rc::new(Vec::new()));
    let v = Rc::get_mut(&mut rc).expect("pooled blocks are uniquely owned");
    v.clear();
    if v.capacity() < min_capacity {
        v.reserve(min_capacity);
    }
    rc
}

/// Return a storage block to the slab. No-ops (plain drop) when the block
/// is still shared, empty, oversized, or the slab is full.
pub fn recycle(mut rc: Rc<Vec<u8>>) {
    if Rc::get_mut(&mut rc).is_none() {
        return;
    }
    let cap = rc.capacity();
    if cap == 0 || cap > MAX_POOLED_CAPACITY {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOLED_BUFFERS {
            p.push(rc);
        }
    });
}

/// Blocks currently pooled on this thread (diagnostics/tests).
pub fn pooled_blocks() -> usize {
    POOL.with(|p| p.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_recycle_round_trip_reuses_capacity() {
        // Drain anything earlier tests pooled so the assertions are ours.
        while POOL.with(|p| p.borrow_mut().pop()).is_some() {}
        let a = acquire(4096);
        assert!(a.capacity() >= 4096);
        assert!(a.is_empty());
        let ptr = a.as_ptr();
        recycle(a);
        assert_eq!(pooled_blocks(), 1);
        let b = acquire(1024);
        assert_eq!(b.as_ptr(), ptr, "pooled block must be reused");
        assert!(b.is_empty(), "reused blocks are cleared");
    }

    #[test]
    fn shared_blocks_are_not_recycled() {
        while POOL.with(|p| p.borrow_mut().pop()).is_some() {}
        let a = acquire(16);
        let b = Rc::clone(&a);
        recycle(a); // still shared via `b`
        assert_eq!(pooled_blocks(), 0);
        drop(b);
    }

    #[test]
    fn oversized_and_empty_blocks_are_dropped() {
        while POOL.with(|p| p.borrow_mut().pop()).is_some() {}
        recycle(Rc::new(Vec::new()));
        recycle(Rc::new(Vec::with_capacity(MAX_POOLED_CAPACITY + 1)));
        assert_eq!(pooled_blocks(), 0);
    }

    #[test]
    fn slab_is_bounded() {
        while POOL.with(|p| p.borrow_mut().pop()).is_some() {}
        for _ in 0..(MAX_POOLED_BUFFERS + 8) {
            recycle(Rc::new(Vec::with_capacity(64)));
        }
        assert_eq!(pooled_blocks(), MAX_POOLED_BUFFERS);
    }

    #[test]
    fn empty_placeholder_is_never_unique() {
        let e = empty();
        assert_eq!(e.capacity(), 0);
        assert!(Rc::strong_count(&e) >= 2);
    }
}
