//! # vcas-structures — concurrent data structures with constant-time snapshots
//!
//! This crate contains the data-structure applications from §4/§6 of *"Constant-Time
//! Snapshots with Applications to Concurrent Data Structures"* (PPoPP 2021), built on the
//! [`vcas_core`] camera / versioned-CAS objects and the [`vcas_ebr`] reclamation substrate:
//!
//! * [`bst::Nbbst`] — the non-blocking leaf-oriented binary search tree of Ellen, Fatourou,
//!   Ruppert and van Breugel, in two modes: *plain* (the original, `BST` in the paper's
//!   figures) and *versioned* (`VcasBST`), where every child pointer is a versioned CAS
//!   object so that arbitrary multi-point queries run atomically on a snapshot.
//! * [`list::HarrisList`] — Harris's lock-free sorted linked list, plain and versioned, with
//!   atomic range queries, multi-searches and i-th element queries.
//! * [`skiplist::VcasSkipList`] — a lock-free skip list whose tower pointers are all
//!   vCAS-versioned (no plain mode): the logarithmic ordered structure behind the
//!   streaming range-scan engine ([`view::MapSnapshotView::range_iter`]), answering
//!   ordered queries on a pinned snapshot in `O(log n + k)`. See
//!   `docs/ordered_queries.md`.
//! * [`queue::MsQueue`] — the Michael–Scott queue, plain and versioned, with atomic scans,
//!   i-th-element and peek-both-ends queries.
//! * [`hashmap::VcasHashMap`] — a lock-free open-bucket hash table whose buckets are
//!   vCAS-versioned Harris lists sharing one camera, giving snapshot-timestamped
//!   `multi_get` and `snapshot_iter` (plus a plain unversioned mode for the ablation).
//! * [`baselines`] — comparator structures for the evaluation: `DcBst` (double-collect /
//!   validate-and-retry range queries, the KST / PNB-BST mechanism), `LockBst` (coarse
//!   reader-writer locking for range queries, the SnapTree mechanism), `LockHashMap`
//!   (reader-writer-locked std hash map, the hash-table comparator), and the non-atomic
//!   query mode available on every structure (the weakly-consistent-iterator baseline).
//! * [`view`] — **the primary query surface**: reified snapshot views. Every structure
//!   implements [`view::SnapshotSource`], whose [`view::MapSnapshotView`]s answer
//!   arbitrarily many `get` / `range` / `iter` queries at one timestamp, paying for the
//!   snapshot and EBR pin once per view; [`view::GroupQueryExt`] opens one view per member
//!   of a [`vcas_core::GroupSnapshot`] at a single shared timestamp (cross-structure
//!   atomic reads). See `docs/snapshot_views.md`.
//! * [`queries`] — the multi-point query set of the paper's Table 2 (`range`, `succ`,
//!   `findif`, `multisearch`) executed over views ([`queries::run_query_on_view`],
//!   [`queries::QueryKind::Composed`] batches), the hash-map analogues (`multiget4/16`,
//!   `scanall`), cross-structure queries ([`queries::CrossQueryKind`]) over two views
//!   sharing a timestamp, and **temporal queries** ([`queries::TemporalQueryKind`]):
//!   as-of batches over retained history and diffs between two timestamps.
//! * [`diff`] — temporal diff queries: [`diff::diff_views`] computes the
//!   inserted/removed/changed key sets between two frozen views of one structure
//!   ([`view::SnapshotSource::diff`] is the one-call form over two timestamps).
//! * [`cache`] — [`cache::QueryCache`], a memo table for historical queries. History is
//!   immutable, so `(structure, timestamp, query)` keys never go stale; the only
//!   maintenance is retention-driven eviction ([`cache::QueryCache::maintain`]). See
//!   `docs/time_travel.md`.
//!
//! The two modes of the tree, list, queue and hash map are one type parameter,
//! [`vcas_core::Mode`]: `Nbbst<Plain>` keeps its pointers in one-word atomics,
//! `Nbbst<Versioned>` (the default, so plain `Nbbst` names it) in versioned CAS objects.
//!
//! All ordered structures implement [`traits::ConcurrentMap`] (point operations) and, where
//! supported, [`traits::AtomicRangeMap`] (atomic multi-point queries), which is what the
//! workload harness in `vcas-workload` drives; unordered structures expose their atomic
//! batched reads through [`traits::SnapshotMap`]. The multi-point methods of both traits
//! are default methods over [`view::SnapshotSource::snapshot_view`] — one-shot
//! conveniences around the view API.

#![warn(missing_docs)]
// Satellite of the vcas-analysis lint pass: surface undocumented `unsafe` in local builds.
// CI's clippy run passes `--force-warn clippy::undocumented_unsafe_blocks` so `-D warnings`
// cannot escalate these legacy sites; the allowlist ratchet in `crates/analysis` is what
// forbids growth. vcas-core / vcas-ebr / vcas-sync / vcas-analysis set this to `deny`.
#![warn(clippy::undocumented_unsafe_blocks)]

/// Test helper: runs `$body` with `$x` bound first to `plain()`, then to `versioned()` —
/// constructors the calling test module defines. The two structures are different types,
/// so the body is compiled once per mode.
#[cfg(test)]
macro_rules! for_both_modes {
    (|$x:ident| $body:block) => {{
        {
            let $x = plain();
            $body
        }
        {
            let $x = versioned();
            $body
        }
    }};
}

pub mod baselines;
pub mod bst;
pub mod cache;
pub mod diff;
pub mod hashmap;
pub mod list;
pub mod queries;
pub mod queue;
pub mod skiplist;
pub mod traits;
pub mod view;

pub use cache::{CacheKey, CachedQuery, QueryCache, SourceId};
pub use diff::{diff_views, TemporalDiff};
pub use queries::{run_temporal_query, TemporalQueryKind};
pub use view::GroupTimeTravelExt;

/// Contention backoff for lock-free retry loops; free on the first attempt.
///
/// On a single-core machine a retry can only resolve once the operation it keeps racing
/// with gets scheduled, so we yield the CPU there — otherwise two spinning threads burn
/// whole scheduler quanta against each other (observed as multi-minute livelocks in the
/// workload driver). On multi-core machines a `sched_yield` syscall per failed CAS would
/// distort exactly the contention behavior the paper's scalability figures measure, so we
/// only issue cheap exponential `spin_loop` hints there. Uncontended fast paths pay
/// nothing either way.
#[inline]
pub(crate) fn backoff(attempts: &mut u32) {
    if *attempts > 0 {
        if single_core() {
            std::thread::yield_now();
        } else {
            for _ in 0..(1u32 << (*attempts).min(6)) {
                std::hint::spin_loop();
            }
        }
    }
    *attempts = attempts.saturating_add(1);
}

/// Whether this process has only one CPU to run on (cached).
fn single_core() -> bool {
    use std::sync::OnceLock;
    static SINGLE: OnceLock<bool> = OnceLock::new();
    *SINGLE
        .get_or_init(|| std::thread::available_parallelism().map(|n| n.get() == 1).unwrap_or(false))
}

pub use baselines::{DcBst, LockBst, LockHashMap};
pub use bst::Nbbst;
pub use hashmap::VcasHashMap;
pub use list::HarrisList;
pub use queries::{run_hash_query, run_query, HashQueryKind, QueryKind, QueryOutcome};
pub use queue::MsQueue;
pub use skiplist::VcasSkipList;
pub use traits::{AtomicRangeMap, ConcurrentMap, SnapshotMap};
pub use view::{BestEffortView, GroupQueryExt, MapSnapshotView, SnapshotSource, StructureGroup};
