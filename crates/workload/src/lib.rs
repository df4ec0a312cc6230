//! # vcas-workload — workload generation and throughput harness for the evaluation
//!
//! Reimplements the experimental methodology of §7 of the paper:
//!
//! * keys drawn uniformly at random from `[1, r]`, with `r` chosen so that the structure
//!   stays at its prefilled size in expectation given the insert/delete mix;
//! * operation mixes expressed as percentages of insert / delete / find / range-query
//!   ([`Mix`]), e.g. the paper's "3i-2d-95f" lookup-heavy and "30i-20d-50f" update-heavy
//!   mixes;
//! * one timed runner behind every `run_*`: the caller builds its structures and hands
//!   over pools of worker threads, each pool a thread count, a seed offset and an op; the
//!   runner spawns, times, stops and joins them, naming the seed if a worker panics;
//! * the mixed workload ([`run_mixed`]): threads hammer one shared structure with the
//!   mix, its range slot running the map's [`RangeSlot`] query — an atomic `range` on an
//!   ordered [`vcas_structures::AtomicRangeMap`], an atomic `multi_get` of
//!   [`MULTI_GET_BATCH`] keys on an unordered [`vcas_structures::SnapshotMap`] (tables
//!   sized by [`bucket_count`]) — under uniform or skewed keys ([`KeySkew`]);
//! * dedicated update and range-query thread pools ([`run_dedicated`], used for the
//!   rqsize sweeps of Figs. 2g–2k);
//! * the sorted-insertion workload of Fig. 2i ([`run_sorted_insert`]), where threads grab
//!   chunks of an ascending key sequence from a global work queue;
//! * the `composed` scenario ([`run_composed`]): view-driven query execution against a
//!   BST and a hash map sharing one camera — each query thread takes one group snapshot,
//!   opens one view per structure at the shared timestamp, and amortizes a batch of
//!   Table-2 and cross-structure queries over it;
//! * three scenarios on a versioned structure with automatic reclamation installed
//!   ([`vcas_core::ReclaimPolicy`]) and the driver thread as a long-pinned reader that
//!   re-validates its frozen answers across the window. [`run_reclaim`] churns a BST
//!   under the given policy; [`run_skiplist`] drives a
//!   [`vcas_structures::VcasSkipList`] whose range slot issues **streaming** range scans,
//!   plus scan-while-update full iterations; [`run_timetravel`] holds a ladder of named
//!   [`vcas_core::Anchor`]s and issues as-of or temporal-diff queries against them
//!   ([`TimeTravelMode`]). Each ends by asserting that, once the pins and anchors drop,
//!   version lists collapse, exactly the surviving structure is live, and every node and
//!   version is conserved (`created == retired + dropped`) after the structure drops.
//!
//! Throughput is reported in operations per second ([`Throughput`]). All randomness
//! derives from [`WorkloadSpec::seed`] (default [`spec::DEFAULT_SEED`]), so runs are
//! reproducible and driver failures print the seed to replay them.

#![warn(missing_docs)]

pub mod driver;
pub mod spec;

pub use driver::{
    run_composed, run_dedicated, run_mixed, run_reclaim, run_skiplist, run_sorted_insert,
    run_timetravel, ComposedResult, DedicatedResult, RangeSlot, ReclaimResult, SkipListResult,
    Throughput, TimeTravelResult,
};
pub use spec::{bucket_count, KeySkew, Mix, TimeTravelMode, WorkloadSpec, MULTI_GET_BATCH};
