//! Bench-only counting allocator.
//!
//! `perf_trace` installs [`CountingAlloc`] as its global allocator. Counters
//! are per thread, so what the measuring thread reads between two
//! [`snapshot`]s is exactly what that thread allocated — no other thread can
//! add to it — and the counts of a single-threaded replay repeat run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching them never
    // allocates and stays valid during thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus per-thread counts of calls and bytes requested.
pub struct CountingAlloc;

fn note(bytes: usize) {
    // `try_with` because the allocator may be called while a thread's local
    // storage is being torn down; those calls go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only this
// thread's plain `Cell`s and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is a fresh request for the whole new size.
        note(new_size);
        // SAFETY: `ptr` and `layout` describe a live block of this
        // allocator, i.e. of `System`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// This thread's counters so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

impl AllocCount {
    /// Counts since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads this thread's counters (zero for ever when [`CountingAlloc`] is not
/// the global allocator).
pub fn snapshot() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary runs on the counting allocator (see lib.rs).
    #[test]
    fn counts_this_threads_allocations_exactly() {
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let boxed = Box::new([0u64; 4]);
        let after = snapshot().since(before);
        assert_eq!(after.allocs, 2);
        assert_eq!(after.bytes, 4096 + 32);
        drop((v, boxed));
        assert_eq!(snapshot().since(before).allocs, 2, "frees are not counted");
    }

    #[test]
    fn another_threads_allocations_are_not_counted_here() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<AllocCount>();
        let theirs = std::thread::spawn(move || {
            rx.recv().unwrap();
            let mine = snapshot();
            let v: Vec<u8> = Vec::with_capacity(1 << 20);
            let counted = snapshot().since(mine);
            drop(v);
            done_tx.send(counted).unwrap();
        });
        // Between these two snapshots only the other thread allocates.
        let before = snapshot();
        tx.send(()).unwrap();
        let counted = done_rx.recv().unwrap();
        let here = snapshot().since(before);
        theirs.join().unwrap();
        assert_eq!((counted.allocs, counted.bytes), (1, 1 << 20));
        assert!(here.bytes < 1 << 20, "{here:?}");
    }

    #[test]
    fn a_growing_vector_counts_each_reallocation() {
        let before = snapshot();
        let mut v: Vec<u64> = Vec::new();
        for i in 0..1000 {
            v.push(i);
        }
        let grown = snapshot().since(before);
        assert!(grown.allocs >= 5 && grown.allocs <= 20, "{grown:?}");
        assert!(grown.bytes >= 8000);
    }
}
