//! Allocation census: a counting [`GlobalAlloc`] over [`System`].
//!
//! Every thread owns one cache-line-padded slot and updates it with a plain load and
//! store, never a shared read-modify-write, so counting adds no cross-core traffic to
//! the timed window (a shared atomic would bounce one line between the two threads of
//! `bst-rq-under-updates` about three times per update). Any thread may read every
//! slot; slots of exited threads keep their totals, so sums over all slots are exact
//! once the threads that wrote them have been joined.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Number of slots. The benchmark starts a few threads per set-up; threads beyond the
/// last owned slot share it through atomic adds.
const SLOTS: usize = 64;
const SHARED: usize = SLOTS - 1;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    frees: AtomicU64::new(0),
    bytes_in: AtomicU64::new(0),
    bytes_out: AtomicU64::new(0),
};
static SLOT: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so the allocator may read it at any
    // point of a thread's life, teardown included.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> usize {
    MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Relaxed).min(SHARED));
            }
            s.get()
        })
        .unwrap_or(SHARED)
}

fn bump(slot: usize, counter: impl Fn(&Slot) -> &AtomicU64, n: u64) {
    let c = counter(&SLOT[slot]);
    if slot == SHARED {
        c.fetch_add(n, Relaxed);
    } else {
        // Only the owning thread writes this slot.
        c.store(c.load(Relaxed) + n, Relaxed);
    }
}

fn note_alloc(size: usize) {
    let s = my_slot();
    bump(s, |x| &x.allocs, 1);
    bump(s, |x| &x.bytes_in, size as u64);
}

fn note_free(size: usize) {
    let s = my_slot();
    bump(s, |x| &x.frees, 1);
    bump(s, |x| &x.bytes_out, size as u64);
}

/// The counting allocator; install with `#[global_allocator]`.
pub struct Census;

// SAFETY: every method forwards to `System` with the caller's arguments unchanged; the
// counting touches only atomics and a const thread-local, and never allocates.
unsafe impl GlobalAlloc for Census {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and frees counted so far.
#[derive(Clone, Copy)]
pub struct Counts {
    pub allocs: u64,
    pub frees: u64,
}

/// This thread's own counts (cheap: two loads of a slot only this thread writes).
pub fn thread_counts() -> Counts {
    let s = &SLOT[my_slot()];
    Counts { allocs: s.allocs.load(Relaxed), frees: s.frees.load(Relaxed) }
}

/// Heap bytes allocated and not yet freed, summed over every thread. Exact for the
/// threads that have been joined; call it outside the timed window.
pub fn live_bytes() -> i64 {
    SLOT.iter().map(|s| s.bytes_in.load(Relaxed) as i64 - s.bytes_out.load(Relaxed) as i64).sum()
}
