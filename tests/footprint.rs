//! Exact memory footprint of the EFRB tree, versioned and plain, and of the versioned
//! hash map and skip list.
//!
//! This test binary installs its own counting global allocator, so the bytes a
//! prefill leaves allocated are known exactly (requested sizes, not allocator slack).
//! It holds a single test: the counters are per thread, and the test runs on one
//! thread with reclamation `Disabled`, the same regime as the benchmark's
//! `bst-lookup-large` prefill.
//!
//! Run: `cargo test --test footprint -- --nocapture` prints every figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vcas_repro::core::{Camera, ReclaimPolicy};
use vcas_repro::structures::{ConcurrentMap, Nbbst, SnapshotSource, VcasHashMap, VcasSkipList};

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

/// Requested bytes per key that a versioned tree may hold after the prefill: 108.7 B/key
/// measured on x86-64 Linux (plain tree: 84.3, ratio 1.29), plus under 5% headroom. Per
/// key that is a 24 B leaf, a 64 B internal node (the plain tree's 40 B plus the 24 B
/// record of the version that installs it) and a share of descriptors. A new node's
/// child cells hold their children directly, and each insert publishes the new internal
/// node's own record, so a prefill allocates no pooled version node.
const VERSIONED_BUDGET: f64 = 114.0;

/// Bound on the versioned tree's bytes per key over the plain tree's: the embedded
/// version records are the whole difference (1.29 measured).
const VERSIONED_OVER_PLAIN: f64 = 1.35;

/// Requested bytes per key that a versioned hash map at load factor 0.75 (two buckets
/// per key, as in the benchmark's `hash-mixed`) may hold after the prefill: 65.4 B/key
/// measured on x86-64 Linux, plus under 5% headroom. Per key that is a 32 B list node,
/// two 8 B buckets that hold their values directly, and 0.7 of a 24 B pooled version
/// node: the cell an insert changed gets one, while a new list node's own cell starts
/// direct.
const HASH_MAP_BUDGET: f64 = 68.0;

/// Requested bytes per key that a versioned skip list may hold after the prefill:
/// 106.2 B/key measured on x86-64 Linux, plus under 5% headroom. Per key that is a 48 B
/// node (key, value, counter and the tower's `Vec` header), its tower of 8 B cells (two
/// on average), and about 1.75 pooled 24 B version nodes: one for each predecessor cell
/// an insert changes, while the new node's own cells start direct.
const SKIPLIST_BUDGET: f64 = 111.0;

/// Live bytes per key left by building a map with `make` and prefilling `KEYS` keys.
/// Keys go in bit-reversed order, which builds a balanced tree (the EFRB tree does not
/// rebalance; an ascending prefill would make it a list).
fn bytes_per_key<T: ConcurrentMap + SnapshotSource>(make: impl FnOnce(&Arc<Camera>) -> T) -> f64 {
    // Settle the frees an earlier structure's drop deferred, so none lands in this window.
    assert_eq!(vcas_repro::ebr::drain(), 0, "a quiescent process drains completely");
    let base = LIVE.with(Cell::get);
    let camera = Camera::new();
    assert!(ReclaimPolicy::Disabled.install(&camera).is_none());
    let map = make(&camera);
    for i in 0..KEYS {
        let k = i.reverse_bits() >> (64 - LOG_KEYS);
        assert!(map.insert(k, k));
    }
    let bytes = LIVE.with(Cell::get) - base;
    assert_eq!(map.snapshot_view().len(), KEYS as usize);
    drop(map);
    bytes as f64 / KEYS as f64
}

#[test]
fn versioned_tree_stays_within_its_byte_budget_and_twice_the_plain_tree() {
    let versioned = bytes_per_key(Nbbst::new_versioned);
    let plain = bytes_per_key(|_| Nbbst::new_plain());
    let hash = bytes_per_key(|camera| {
        VcasHashMap::new_versioned(camera, VcasHashMap::buckets_for(KEYS, 0.75))
    });
    let skiplist = bytes_per_key(VcasSkipList::new_versioned);
    println!(
        "versioned {versioned:.1} B/key, plain {plain:.1} B/key, hash map {hash:.1} B/key, \
         skip list {skiplist:.1} B/key"
    );
    assert!(
        versioned <= VERSIONED_BUDGET,
        "versioned tree holds {versioned:.1} B/key, budget {VERSIONED_BUDGET} B/key"
    );
    assert!(
        versioned <= VERSIONED_OVER_PLAIN * plain,
        "versioned tree holds {versioned:.1} B/key, over {VERSIONED_OVER_PLAIN}x the plain \
         tree's {plain:.1}"
    );
    assert!(
        hash <= HASH_MAP_BUDGET,
        "versioned hash map holds {hash:.1} B/key, budget {HASH_MAP_BUDGET} B/key"
    );
    assert!(
        skiplist <= SKIPLIST_BUDGET,
        "versioned skip list holds {skiplist:.1} B/key, budget {SKIPLIST_BUDGET} B/key"
    );
}
