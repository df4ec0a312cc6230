//! Common interfaces implemented by the ordered structures, used by the workload harness.
//!
//! Every multi-point query in these traits is a default method that opens one snapshot
//! view ([`crate::view::SnapshotSource::snapshot_view`]) and delegates to it: the view is
//! the single implementation of each query, and these traits are its batch-of-one
//! convenience surface. Structures whose atomicity comes from a lock or from validation
//! (the baselines) put that mechanism in their view, so no structure overrides these.

use crate::view::SnapshotSource;

/// Keys and values are 64-bit integers throughout the evaluation, matching the paper's
/// integer-key benchmarks.
pub type Key = u64;
/// Value type stored with each key.
pub type Value = u64;

/// Largest key every map accepts: `Key::MAX - 2`. The leaf-oriented trees ([`crate::Nbbst`]
/// and the baselines built on it) keep their two sentinel leaves at `Key::MAX - 1` and
/// `Key::MAX`.
pub const MAX_KEY: Key = Key::MAX - 2;

/// A concurrent ordered map / set supporting linearizable point operations.
///
/// Keys range over `0..=MAX_KEY`. Keys above [`MAX_KEY`] are outside the trees' domain:
/// their `insert` panics, while `get`, `contains` and `remove` treat such a key as absent.
/// The other maps accept every `u64`, so a caller that drives several maps through this
/// trait keeps its keys at or below `MAX_KEY`.
pub trait ConcurrentMap: Send + Sync {
    /// Inserts `key` with `value`; returns `false` if the key was already present.
    fn insert(&self, key: Key, value: Value) -> bool;
    /// Removes `key`; returns `false` if it was not present.
    fn remove(&self, key: Key) -> bool;
    /// Does the map currently contain `key`?
    fn contains(&self, key: Key) -> bool;
    /// Returns the value associated with `key`, if any.
    fn get(&self, key: Key) -> Option<Value>;
    /// Short human-readable name used in benchmark output.
    fn name(&self) -> &'static str;
}

/// A concurrent (not necessarily ordered) map whose batched reads are anchored to a
/// single snapshot timestamp: every key examined by one call observes the state as of one
/// point during the call, with no torn reads. Full-table scans and counts go through
/// [`SnapshotSource::snapshot_view`].
///
/// **Baseline escape hatch:** structures constructed in an explicitly *plain* / unversioned
/// mode (e.g. [`crate::hashmap::VcasHashMap::new_plain`]) answer with weakly-consistent
/// reads instead — they are the evaluation's non-atomic comparators, and choosing the
/// plain constructor is the opt-out. Every snapshot-capable constructor upholds the
/// single-timestamp guarantee.
pub trait SnapshotMap: ConcurrentMap + SnapshotSource {
    /// Looks up every key in `keys` against one snapshot (all lookups observe the same
    /// timestamp): the paper's `multisearch`.
    fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        self.snapshot_view().multi_get(keys)
    }
}

/// A concurrent ordered map that additionally supports *atomic* multi-point queries
/// (linearizable range queries and friends).
pub trait AtomicRangeMap: SnapshotMap {
    /// Returns every `(key, value)` pair with `lo <= key <= hi`, atomically: the result is
    /// the content of the range at a single point during the call.
    fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        self.snapshot_view().range(lo, hi)
    }

    /// Returns up to `count` `(key, value)` pairs with key strictly greater than `key`, in
    /// ascending order, atomically. On an ordered view this costs `O(log n + count)`: it
    /// does **not** materialize the tail of the map.
    fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        self.snapshot_view().successors(key, count)
    }

    /// Returns the first `(key, value)` pair in `[lo, hi)` whose key satisfies `pred`,
    /// atomically. Stops at the first predicate hit, so `pred` runs once per entry
    /// *visited*; `tests/ordered_streaming.rs` pins this with a probe predicate.
    fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        self.snapshot_view().find_if(lo, hi, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The traits are object safe so the workload harness can hold heterogeneous structures.
    #[test]
    fn traits_are_object_safe() {
        fn _takes_map(_: &dyn ConcurrentMap) {}
        fn _takes_range_map(_: &dyn AtomicRangeMap) {}
        fn _takes_snapshot_map(_: &dyn SnapshotMap) {}
    }

    #[test]
    fn key_value_are_u64() {
        let k: Key = 5;
        let v: Value = 6;
        assert_eq!(k + 1, v);
    }
}
