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
//!   atomic multi-point queries on its snapshot views.
//! * [`skiplist::VcasSkipList`] — a lock-free skip list whose tower pointers are all
//!   vCAS-versioned (no plain mode): the logarithmic ordered structure behind the
//!   streaming range-scan engine ([`view::MapSnapshotView::range_iter`]), answering
//!   ordered queries on a pinned snapshot in `O(log n + k)`. See
//!   `docs/ordered_queries.md`.
//! * [`queue::MsQueue`] — the Michael–Scott queue, plain and versioned, with atomic scans,
//!   i-th-element and peek-both-ends queries.
//! * [`hashmap::VcasHashMap`] — a lock-free open-bucket hash table whose buckets are
//!   Harris-list head cells, vCAS-versioned on one camera, so one view reads every bucket
//!   at one timestamp (plus a plain unversioned mode for the ablation).
//! * [`baselines`] — comparator structures for the evaluation: `DcBst` (double-collect /
//!   validate-and-retry range queries, the KST / PNB-BST mechanism), `LockBst` (coarse
//!   reader-writer locking for range queries, the SnapTree mechanism), `LockHashMap`
//!   (reader-writer-locked std hash map, the hash-table comparator), and the non-atomic
//!   query mode available on every structure (the weakly-consistent-iterator baseline).
//! * [`view`] — **the one query surface**: reified snapshot views. Every structure
//!   implements [`view::SnapshotSource`], whose [`view::MapSnapshotView`]s answer
//!   arbitrarily many queries at one timestamp, paying for the snapshot and EBR pin once
//!   per view. Each view implements `get`, one ordered cursor (`range_iter`) and
//!   `timestamp`; every other query (`multi_get`, `iter`, `len`, `range`, `successors`,
//!   `find_if`) is a trait default over them. [`view::SnapshotSource::view_in`] opens a
//!   view at a caller's [`vcas_core::PinnedSnapshot`], so one pin and one `view_in` per
//!   structure on its camera read them all at a single timestamp (cross-structure atomic
//!   reads). See `docs/snapshot_views.md`.
//! * [`queries`] — the multi-point query set of the paper's Table 2 (`range`, `succ`,
//!   `findif`, `multisearch`) executed over views ([`queries::run_query_on_view`],
//!   [`queries::QueryKind::Composed`] batches), the hash-map analogues (`multiget4/16`,
//!   `scanall`), cross-structure queries ([`queries::CrossQueryKind`]) over two views
//!   sharing a timestamp.
//! * [`diff`] — temporal diff queries: [`diff::diff_views`] computes the
//!   inserted/removed/changed key sets between two frozen views of one structure
//!   ([`view::SnapshotSource::diff`] is the one-call form over two timestamps).
//!
//! The two modes of the tree, list, queue and hash map are one type parameter,
//! [`vcas_core::Mode`]: `Nbbst<Plain>` keeps its pointers in one-word atomics,
//! `Nbbst<Versioned>` (the default, so plain `Nbbst` names it) in versioned CAS objects.
//!
//! Every map implements [`traits::ConcurrentMap`] (point operations),
//! [`traits::SnapshotMap`] (atomic `multi_get`) and [`traits::AtomicRangeMap`] (atomic
//! `range` / `successors` / `find_if`), which is what the workload harness in
//! `vcas-workload` drives. The multi-point methods of both traits are default methods
//! over [`view::SnapshotSource::snapshot_view`] — one-shot conveniences around the view
//! API; no structure overrides them.

#![warn(missing_docs)]

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
pub mod diff;
pub mod hashmap;
pub mod list;
pub mod queries;
pub mod queue;
pub mod skiplist;
pub mod traits;
pub mod view;

pub use diff::{diff_views, TemporalDiff};

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
pub use queries::{
    run_hash_query_on_view, run_query_on_view, HashQueryKind, QueryKind, QueryOutcome,
};
pub use queue::MsQueue;
pub use skiplist::VcasSkipList;
pub use traits::{AtomicRangeMap, ConcurrentMap, SnapshotMap};
pub use view::{MapSnapshotView, SnapshotSource};
