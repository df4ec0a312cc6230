//! Exact memory footprint of the EFRB tree, versioned and plain.
//!
//! This test binary installs its own counting global allocator, so the bytes a
//! prefill leaves allocated are known exactly (requested sizes, not allocator slack).
//! It holds a single test: the counters are per thread, and the test runs on one
//! thread with reclamation `Disabled`, the same regime as the benchmark's
//! `bst-lookup-large` prefill.
//!
//! Run: `cargo test --test footprint -- --nocapture` prints both figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vcas_repro::core::{Camera, Mode, ReclaimPolicy};
use vcas_repro::structures::Nbbst;

/// Counts the requested bytes each thread has allocated and not yet freed.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so the allocator may use it at any
    // point of a thread's life.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    let _ = LIVE.try_with(|l| l.set(l.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's arguments unchanged; the
// counting touches only a const thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract, which `System` receives.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract, which `System` receives.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const LOG_KEYS: u32 = 14;
const KEYS: u64 = 1 << LOG_KEYS;

/// Requested bytes per key that a versioned tree may hold after the prefill: 164.5 B/key
/// measured on x86-64 Linux (plain tree: 84.3, ratio 1.95), plus under 5% headroom. Per
/// key that is a 24 B leaf, a 72 B internal node, two 24 B version nodes and a share of
/// descriptors; the plain tree's internal node is 40 B (one-word child cells).
const VERSIONED_BUDGET: f64 = 172.0;

/// Live bytes per key left by building a tree of either mode with `make` and prefilling
/// `KEYS` keys.
/// Keys go in bit-reversed order, which builds a balanced tree (the EFRB tree does not
/// rebalance; an ascending prefill would make it a list).
fn bytes_per_key<M: Mode>(make: impl FnOnce(&std::sync::Arc<Camera>) -> Nbbst<M>) -> f64 {
    // Settle the frees an earlier tree's drop deferred, so none lands in this window.
    assert_eq!(vcas_repro::ebr::drain(), 0, "a quiescent process drains completely");
    let base = LIVE.with(Cell::get);
    let camera = Camera::new();
    assert!(ReclaimPolicy::Disabled.install(&camera).is_none());
    let tree = make(&camera);
    for i in 0..KEYS {
        let k = i.reverse_bits() >> (64 - LOG_KEYS);
        assert!(tree.insert(k, k));
    }
    let bytes = LIVE.with(Cell::get) - base;
    assert_eq!(tree.len(), KEYS as usize);
    drop(tree);
    bytes as f64 / KEYS as f64
}

#[test]
fn versioned_tree_stays_within_its_byte_budget_and_twice_the_plain_tree() {
    let versioned = bytes_per_key(Nbbst::new_versioned);
    let plain = bytes_per_key(|_| Nbbst::new_plain());
    println!("versioned {versioned:.1} B/key, plain {plain:.1} B/key");
    assert!(
        versioned <= VERSIONED_BUDGET,
        "versioned tree holds {versioned:.1} B/key, budget {VERSIONED_BUDGET} B/key"
    );
    assert!(
        versioned <= 2.0 * plain,
        "versioned tree holds {versioned:.1} B/key, over twice the plain tree's {plain:.1}"
    );
}
