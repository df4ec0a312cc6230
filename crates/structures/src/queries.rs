//! The multi-point query set of the paper's Table 2, expressed over the snapshot view of
//! any [`AtomicRangeMap`](crate::traits::AtomicRangeMap). Figure 3 measures the
//! throughput of exactly these queries.
//!
//! Execution is *view-anchored*: every runner takes an open [`MapSnapshotView`] and
//! issues the whole query against it, so a batch of queries can
//! share a single snapshot + EBR pin ([`run_query_on_view`], [`QueryKind::Composed`]).
//!
//! The ordered runners consume the **streaming** view methods
//! ([`MapSnapshotView::range_iter`], [`MapSnapshotView::successors_iter`]) rather than the
//! materializing `Vec` conveniences: on an ordered view (BST, list, skip list) a
//! `range256` walks `O(log n + 256)` entries in key order without allocating an
//! intermediate buffer, `succ1`/`succ128` stop after the requested count, and `findif128`
//! short-circuits at the first predicate hit. See `docs/ordered_queries.md` for the
//! streaming-vs-collect contract.
//!
//! Unordered structures get their own query set ([`HashQueryKind`] over the view of any
//! [`SnapshotMap`](crate::traits::SnapshotMap)): atomic batched lookups and full-table
//! scans, the hash-map analogues of Table 2's multisearch and full-scan rows. Finally,
//! [`CrossQueryKind`] reads *two* structures — e.g. a hash map and a BST sharing one
//! camera — at a single common timestamp, given two views opened in one
//! [`vcas_core::PinnedSnapshot`] with [`view_in`](crate::view::SnapshotSource::view_in).

use crate::traits::{Key, Value};
use crate::view::MapSnapshotView;

/// The query kinds of Table 2 with the parameters used in the paper's Figure 3, plus the
/// view-composition query [`QueryKind::Composed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// `range256`: all keys in `[s, s + 256]`.
    Range256,
    /// `succ1`: the first key-value pair with key greater than `k`.
    Succ1,
    /// `succ128`: the first 128 key-value pairs with key greater than `k`.
    Succ128,
    /// `findif128`: the first key in `[s, e)` divisible by 128.
    FindIf128,
    /// `multisearch4`: look up 4 keys atomically.
    MultiSearch4,
    /// `composed{n}`: `n` Table-2 queries (cycling through the five base kinds, anchors
    /// spread over the key universe) executed against **one** view — every sub-query
    /// observes the same timestamp, and the snapshot + EBR pin are paid for once.
    Composed {
        /// Number of sub-queries run on the shared view.
        n: usize,
    },
}

impl QueryKind {
    /// The five base query kinds, in the order Figure 3 reports them ([`QueryKind::Composed`]
    /// is a combinator over these, not a row of its own).
    pub fn all() -> [QueryKind; 5] {
        [
            QueryKind::Range256,
            QueryKind::Succ1,
            QueryKind::Succ128,
            QueryKind::FindIf128,
            QueryKind::MultiSearch4,
        ]
    }

    /// The label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            QueryKind::Range256 => "range256",
            QueryKind::Succ1 => "succ1",
            QueryKind::Succ128 => "succ128",
            QueryKind::FindIf128 => "findif128",
            QueryKind::MultiSearch4 => "multisearch4",
            QueryKind::Composed { .. } => "composed",
        }
    }
}

/// Outcome of a query execution; carries enough of the result to stop the optimizer from
/// discarding the work and to let tests sanity-check it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Number of key/value pairs the query observed.
    pub observed: usize,
    /// Sum of the observed keys (cheap checksum).
    pub key_sum: u64,
}

impl QueryOutcome {
    fn merge(self, other: QueryOutcome) -> QueryOutcome {
        QueryOutcome {
            observed: self.observed + other.observed,
            key_sum: self.key_sum.wrapping_add(other.key_sum),
        }
    }
}

/// Runs `kind` with the paper's Table 2 parameters against an open `view` (e.g. from
/// [`snapshot_view`](crate::view::SnapshotSource::snapshot_view)), anchored at `start`.
///
/// `key_range` is the size of the key universe; it bounds the `findif128` scan the same way
/// the paper's experiments bound it, and spreads `Composed` sub-query anchors.
pub fn run_query_on_view(
    view: &dyn MapSnapshotView,
    kind: QueryKind,
    start: Key,
    key_range: Key,
) -> QueryOutcome {
    match kind {
        QueryKind::Range256 => summarize_iter(view.range_iter(start, start.saturating_add(256))),
        QueryKind::Succ1 => summarize_iter(view.successors_iter(start).take(1)),
        QueryKind::Succ128 => summarize_iter(view.successors_iter(start).take(128)),
        QueryKind::FindIf128 => {
            let hit = view.find_if(start, key_range.max(start + 1), &|k| k % 128 == 0);
            QueryOutcome {
                observed: usize::from(hit.is_some()),
                key_sum: hit.map(|(k, _)| k).unwrap_or(0),
            }
        }
        QueryKind::MultiSearch4 => {
            let keys = [
                start,
                start.wrapping_add(key_range / 4) % key_range.max(1),
                start.wrapping_add(key_range / 2) % key_range.max(1),
                start.wrapping_add(3 * (key_range / 4)) % key_range.max(1),
            ];
            summarize_lookups(&view.multi_get(&keys))
        }
        QueryKind::Composed { n } => {
            let base = QueryKind::all();
            let mut out = QueryOutcome { observed: 0, key_sum: 0 };
            for i in 0..n {
                // Spread anchors over the universe so sub-queries touch different regions.
                let anchor = start.wrapping_add(i as u64 * 131) % key_range.max(1);
                out = out.merge(run_query_on_view(view, base[i % base.len()], anchor, key_range));
            }
            out
        }
    }
}

/// Folds a streaming query result into an outcome without materializing it: the ordered
/// runners consume [`MapSnapshotView::range_iter`] / [`MapSnapshotView::successors_iter`]
/// directly, so on an ordered view a query allocates nothing and only touches the pairs
/// it observes.
fn summarize_iter(pairs: impl Iterator<Item = (Key, Value)>) -> QueryOutcome {
    let mut out = QueryOutcome { observed: 0, key_sum: 0 };
    for (k, _) in pairs {
        out.observed += 1;
        out.key_sum = out.key_sum.wrapping_add(k);
    }
    out
}

fn summarize_lookups(results: &[Option<Value>]) -> QueryOutcome {
    QueryOutcome {
        observed: results.iter().filter(|r| r.is_some()).count(),
        key_sum: results.iter().flatten().fold(0u64, |acc, v| acc.wrapping_add(*v)),
    }
}

/// Multi-point queries for unordered snapshot maps (the hash-map analogue of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashQueryKind {
    /// `multiget4`: look up 4 keys atomically.
    MultiGet4,
    /// `multiget16`: look up 16 keys atomically.
    MultiGet16,
    /// `scanall`: iterate the whole table at one timestamp.
    ScanAll,
}

impl HashQueryKind {
    /// Every hash-map query kind, in reporting order.
    pub fn all() -> [HashQueryKind; 3] {
        [HashQueryKind::MultiGet4, HashQueryKind::MultiGet16, HashQueryKind::ScanAll]
    }

    /// The label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            HashQueryKind::MultiGet4 => "multiget4",
            HashQueryKind::MultiGet16 => "multiget16",
            HashQueryKind::ScanAll => "scanall",
        }
    }
}

/// Runs `kind` against an open `view`, anchored at `start`; `key_range` is the size of the
/// key universe, used to spread a multi-get batch across it (so the batch touches
/// distinct buckets rather than one).
pub fn run_hash_query_on_view(
    view: &dyn MapSnapshotView,
    kind: HashQueryKind,
    start: Key,
    key_range: Key,
) -> QueryOutcome {
    match kind {
        HashQueryKind::MultiGet4 => run_multi_get(view, start, key_range, 4),
        HashQueryKind::MultiGet16 => run_multi_get(view, start, key_range, 16),
        HashQueryKind::ScanAll => {
            let (mut observed, mut key_sum) = (0usize, 0u64);
            for (k, _) in view.iter() {
                observed += 1;
                key_sum = key_sum.wrapping_add(k);
            }
            QueryOutcome { observed, key_sum }
        }
    }
}

/// Derives `batch` *distinct* keys spread over the workload's 1-based universe
/// `[1, key_range]` and looks them up on `view`. The batch is clamped to the universe
/// size: with fewer keys than batch slots, the un-clamped derivation would wrap and look
/// the same key up twice, silently inflating `observed`.
fn run_multi_get(
    view: &dyn MapSnapshotView,
    start: Key,
    key_range: Key,
    batch: u64,
) -> QueryOutcome {
    summarize_lookups(&view.multi_get(&spread_keys(start, key_range, batch)))
}

/// Derives `min(batch, key_range)` *distinct* keys spread over the workload's 1-based
/// universe `[1, key_range]`, anchored at `start`.
///
/// The anchor offset is reduced into `[0, key_range)` *before* the `-1` shift (subtracting
/// first, as the old derivation did, is wrong at the wrap point: u64 wrap-around is
/// arithmetic mod 2^64, not mod `key_range` — and naively adding `key_range - 1` instead
/// can overflow). `i * stride < batch * stride <= key_range`, so the offsets — and hence
/// the keys — are pairwise distinct modulo `key_range` (u128 keeps the sum exact near
/// `u64::MAX`).
fn spread_keys(start: Key, key_range: Key, batch: u64) -> Vec<Key> {
    let key_range = key_range.max(1);
    let batch = batch.min(key_range);
    let stride = (key_range / batch).max(1);
    let m = start % key_range;
    let base = if m == 0 { key_range - 1 } else { m - 1 };
    (0..batch)
        .map(|i| ((base as u128 + (i * stride) as u128) % key_range as u128) as Key + 1)
        .collect()
}

/// Cross-structure queries: one query reading **two** structures at a single common
/// timestamp. The two views must be opened in the same [`vcas_core::PinnedSnapshot`] (or
/// otherwise be anchored at one shared handle) for the read to be atomic across both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossQueryKind {
    /// `xmultiget4`: look the same 4 keys up in both structures, atomically across both.
    MultiGetBoth4,
    /// `xscan`: scan both structures at the shared timestamp (the conservation audit: for
    /// entities partitioned across the two structures, `observed` is invariant).
    ScanBoth,
}

impl CrossQueryKind {
    /// Every cross-structure query kind, in reporting order.
    pub fn all() -> [CrossQueryKind; 2] {
        [CrossQueryKind::MultiGetBoth4, CrossQueryKind::ScanBoth]
    }

    /// The label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            CrossQueryKind::MultiGetBoth4 => "xmultiget4",
            CrossQueryKind::ScanBoth => "xscan",
        }
    }
}

/// Runs `kind` against two views opened at one shared timestamp (see [`CrossQueryKind`]).
pub fn run_cross_query(
    a: &dyn MapSnapshotView,
    b: &dyn MapSnapshotView,
    kind: CrossQueryKind,
    start: Key,
    key_range: Key,
) -> QueryOutcome {
    match kind {
        CrossQueryKind::MultiGetBoth4 => {
            // Distinct keys in the 1-based universe (same derivation as the hash-map
            // multi-gets), probed in BOTH structures.
            let keys = spread_keys(start, key_range, 4);
            summarize_lookups(&a.multi_get(&keys)).merge(summarize_lookups(&b.multi_get(&keys)))
        }
        CrossQueryKind::ScanBoth => {
            let mut out = QueryOutcome { observed: 0, key_sum: 0 };
            for view in [a, b] {
                for (k, _) in view.iter() {
                    out.observed += 1;
                    out.key_sum = out.key_sum.wrapping_add(k);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bst::Nbbst;
    use crate::hashmap::VcasHashMap;
    use crate::view::SnapshotSource;
    use vcas_core::Camera;

    #[test]
    fn queries_run_against_a_populated_tree() {
        let tree = Nbbst::new_versioned_default();
        for k in 0..1024u64 {
            tree.insert(k, k);
        }
        let run = |kind, start| run_query_on_view(&tree.view(), kind, start, 1024);
        for kind in QueryKind::all() {
            assert!(run(kind, 100).observed > 0, "{} found nothing", kind.label());
        }
        // Spot-check the shapes.
        assert_eq!(run(QueryKind::Range256, 0).observed, 257);
        assert_eq!(run(QueryKind::Succ1, 5).key_sum, 6);
        assert_eq!(run(QueryKind::Succ128, 0).observed, 128);
        assert_eq!(run(QueryKind::FindIf128, 1).key_sum, 128);
        assert_eq!(run(QueryKind::MultiSearch4, 0).observed, 4);
    }

    #[test]
    fn composed_runs_n_subqueries_on_one_view() {
        let tree = Nbbst::new_versioned_default();
        for k in 0..1024u64 {
            tree.insert(k, k);
        }
        let composed = run_query_on_view(&tree.view(), QueryKind::Composed { n: 10 }, 7, 1024);
        assert!(composed.observed > 0);
        // Sequentially, the composed run equals its parts run against the same state.
        let view = tree.snapshot_view();
        let mut expected = QueryOutcome { observed: 0, key_sum: 0 };
        for i in 0..10usize {
            let anchor = 7u64.wrapping_add(i as u64 * 131) % 1024;
            expected = expected.merge(run_query_on_view(
                view.as_ref(),
                QueryKind::all()[i % 5],
                anchor,
                1024,
            ));
        }
        assert_eq!(composed, expected);
        assert_eq!(QueryKind::Composed { n: 10 }.label(), "composed");
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            QueryKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 5);
        let hash_labels: std::collections::HashSet<_> =
            HashQueryKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(hash_labels.len(), 3);
        let cross_labels: std::collections::HashSet<_> =
            CrossQueryKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(cross_labels.len(), 2);
    }

    #[test]
    fn hash_queries_run_against_a_populated_map() {
        let map = VcasHashMap::new_versioned_default();
        // The workload key universe is 1-based: [1, key_range].
        for k in 1..=1024u64 {
            map.insert(k, k);
        }
        let run = |kind, start| run_hash_query_on_view(&map.view(), kind, start, 1024);
        for kind in HashQueryKind::all() {
            assert!(run(kind, 100).observed > 0, "{} found nothing", kind.label());
        }
        // With every key in [1, 1024] present, each batched lookup hits — including at the
        // anchor edges (start 0 and start == key_range wrap back into the universe).
        for start in [0u64, 1, 7, 1024] {
            assert_eq!(run(HashQueryKind::MultiGet4, start).observed, 4);
            assert_eq!(run(HashQueryKind::MultiGet16, start).observed, 16);
        }
        assert_eq!(run(HashQueryKind::ScanAll, 0).observed, 1024);
    }

    #[test]
    fn multi_get_batch_is_clamped_to_distinct_keys() {
        // Regression: with key_range < batch the old derivation wrapped around the
        // universe and looked duplicate keys up, inflating `observed` past the number of
        // distinct keys. The batch must clamp to the universe size instead.
        let map = VcasHashMap::new_versioned_default();
        for k in 1..=3u64 {
            map.insert(k, k);
        }
        for start in [0u64, 1, 2, 3, 17] {
            let out = run_hash_query_on_view(&map.view(), HashQueryKind::MultiGet16, start, 3);
            assert_eq!(out.observed, 3, "start={start}: batch must clamp to 3 distinct keys");
            assert_eq!(out.key_sum, 1 + 2 + 3, "start={start}: each key hit exactly once");
        }
        // A universe of one key degenerates to a single lookup.
        let tiny = VcasHashMap::new_versioned_default();
        tiny.insert(1, 42);
        let out = run_hash_query_on_view(&tiny.view(), HashQueryKind::MultiGet4, 5, 1);
        assert_eq!(out.observed, 1);
    }

    #[test]
    fn spread_keys_stay_distinct_and_in_universe() {
        // Covers the wrap point (start % key_range == 0), a universe smaller than the
        // batch, anchors past the universe, and overflow headroom at u64::MAX (the naive
        // `start % kr + kr - 1` base derivation panics there in debug builds).
        for (start, key_range, batch) in
            [(48u64, 64u64, 4u64), (0, 3, 16), (64, 64, 4), (5, 1, 4), (u64::MAX, u64::MAX, 16)]
        {
            let keys = spread_keys(start, key_range, batch);
            assert_eq!(keys.len() as u64, batch.min(key_range), "start={start} kr={key_range}");
            let distinct: std::collections::HashSet<_> = keys.iter().collect();
            assert_eq!(distinct.len(), keys.len(), "duplicate keys for start={start}");
            for &k in &keys {
                assert!(
                    (1..=key_range).contains(&k),
                    "key {k} outside [1, {key_range}] for start={start}"
                );
            }
        }
    }

    #[test]
    fn cross_queries_read_two_structures_at_one_timestamp() {
        let camera = Camera::new();
        let tree = Nbbst::new_versioned(&camera);
        let map = VcasHashMap::new_versioned(&camera, 16);
        for k in 1..=64u64 {
            if k % 2 == 0 {
                tree.insert(k, k);
            } else {
                map.insert(k, k);
            }
        }
        let pin = camera.pin_snapshot();
        let (map_view, tree_view) = (map.view_in(&pin).unwrap(), tree.view_in(&pin).unwrap());
        assert_eq!(map_view.timestamp(), tree_view.timestamp());

        let scan =
            run_cross_query(map_view.as_ref(), tree_view.as_ref(), CrossQueryKind::ScanBoth, 1, 64);
        assert_eq!(scan.observed, 64, "every key lives in exactly one structure");
        assert_eq!(scan.key_sum, (1..=64u64).sum::<u64>());

        let get = run_cross_query(
            map_view.as_ref(),
            tree_view.as_ref(),
            CrossQueryKind::MultiGetBoth4,
            1,
            64,
        );
        assert_eq!(get.observed, 4, "each probed key hits in exactly one structure");
    }
}
