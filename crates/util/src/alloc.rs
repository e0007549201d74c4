//! A counting wrapper around the system allocator, for asserting
//! allocation behaviour in tests.
//!
//! The engine's steady-state claim — zero heap allocations per quantum
//! once the driver's scratch buffers have warmed up — is enforced by a
//! test, not by convention. Install [`CountingAllocator`] as the
//! `#[global_allocator]` of a test binary, snapshot
//! [`CountingAllocator::allocations`] around the region of interest, and
//! assert on the delta:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! let before = ALLOC.allocations();
//! hot_path();
//! assert_eq!(ALLOC.allocations() - before, 0);
//! ```
//!
//! Every `alloc`, `alloc_zeroed`, and `realloc` counts as one allocation
//! event; `dealloc` does not (freeing is not the behaviour the
//! steady-state claim restricts, and counting it would double-charge
//! temporaries).
//!
//! Events are counted per OS thread: [`CountingAllocator::allocations`]
//! reads the calling thread's count. A test binary is not
//! single-threaded while a test measures: the harness's own threads
//! allocate whenever another test starts or finishes, and a process-wide
//! count would charge those events to the region under test. So a
//! region is measured on the thread that runs it (a one-worker
//! [`Pool`](crate::Pool) runs its tasks inline on the caller).
//!
//! The allocator also tracks *live* bytes (allocated and not yet freed)
//! and their high-water mark, for gates on how much a region holds rather
//! than how often it allocates: snapshot [`CountingAllocator::live`],
//! call [`CountingAllocator::reset_peak`], run the region, and read
//! [`CountingAllocator::peak`]. These stay process-wide, in relaxed
//! atomics: a heap lives across threads, and the harness's few hundred
//! bytes are noise against budgets of a hundred kilobytes and more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Allocation events on this thread. Const-initialised and without a
    /// destructor, so bumping it from inside the allocator never
    /// allocates and works until the thread is gone.
    static EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_event() {
    EVENTS.with(|e| e.set(e.get() + 1));
}

/// System allocator wrapper that counts allocation events per thread and
/// bytes, and tracks live bytes and their peak.
#[derive(Debug)]
pub struct CountingAllocator {
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl CountingAllocator {
    /// A fresh counter (const so it can be a `static`).
    pub const fn new() -> Self {
        CountingAllocator {
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Allocation events (alloc + alloc_zeroed + realloc) made on the
    /// calling thread so far.
    pub fn allocations(&self) -> u64 {
        EVENTS.with(Cell::get)
    }

    /// Total bytes requested across all allocation events so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Bytes allocated and not yet freed.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// The most bytes live at once since the last
    /// [`CountingAllocator::reset_peak`] (or since start).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart the high-water mark at the bytes live now.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }

    fn grow(&self, size: usize) {
        let live = self.live.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, size: usize) {
        self.live.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        CountingAllocator::new()
    }
}

// SAFETY: defers all allocation to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps counters (a
// const-initialised, drop-free thread-local and atomics). Live
// bytes move only when `System` succeeds, so a failed call leaves them
// as they were.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        self.bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event();
        self.bytes
            .fetch_add(layout.size() as u64, Ordering::Relaxed);
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        self.bytes.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.shrink(layout.size() - new_size);
            }
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.shrink(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocator is driven directly, not installed: live bytes rise
    /// on `alloc` and growth, fall on shrinking `realloc` and `dealloc`,
    /// and the peak keeps the high-water mark until it is reset.
    #[test]
    fn live_and_peak_bytes_follow_the_heap() {
        let a = CountingAllocator::new();
        let events = a.allocations();
        let layout = |size| Layout::from_size_align(size, 8).expect("layout");
        // SAFETY: every pointer comes from `a` and is freed or resized
        // with the layout it was last given.
        unsafe {
            let p = a.alloc(layout(64));
            assert_eq!((a.live(), a.peak()), (64, 64));
            let p = a.realloc(p, layout(64), 256);
            assert_eq!((a.live(), a.peak()), (256, 256));
            let p = a.realloc(p, layout(256), 32);
            assert_eq!((a.live(), a.peak()), (32, 256));
            a.reset_peak();
            assert_eq!(a.peak(), 32);
            let q = a.alloc_zeroed(layout(16));
            assert_eq!((a.live(), a.peak()), (48, 48));
            a.dealloc(q, layout(16));
            a.dealloc(p, layout(32));
            assert_eq!((a.live(), a.peak()), (0, 48));
        }
        assert_eq!(a.allocations() - events, 4);
    }
}
