//! Baseline comparators for the evaluation (§7).
//!
//! The paper compares against several special-purpose range-queryable structures (KST,
//! PNB-BST, SnapTree, KiWi, LFCA, EpochBST). Those are separate research codebases; what the
//! paper's analysis attributes their behaviour to is the *mechanism* each uses to make range
//! queries atomic. This module implements those mechanisms on top of the same underlying
//! NBBST so the comparison isolates the mechanism (see DESIGN.md "Substitutions"):
//!
//! * [`DcBst`] — **validate-and-retry (double collect)**: a range query traverses the range
//!   twice and retries until both traversals agree. This is the optimistic mechanism of the
//!   k-ary search tree (and of PNB-BST's abort-and-restart updates seen from the other side):
//!   cheap when ranges are small and updates rare, collapsing when ranges are large or
//!   update-heavy.
//! * [`LockBst`] — **coarse read/write locking**: updates share a readers lock, range queries
//!   take the writer lock. This mirrors the "no range-query scalability, fine without range
//!   queries" shape of lock-based snapshot trees such as SnapTree.
//! * The **non-atomic** baseline used as the normalizer in Fig. 3 is the plain tree
//!   itself, `Nbbst<Plain>`: its [`crate::bst::Nbbst::view`] reads the current state, so
//!   its range queries are plain traversals.

use std::collections::HashMap as StdHashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use vcas_core::{Camera, CameraAttached, Plain, RetentionError};

use crate::bst::Nbbst;
use crate::traits::{AtomicRangeMap, ConcurrentMap, Key, SnapshotMap, Value};
use crate::view::{BestEffortView, MapSnapshotView, SnapshotSource};

/// Double-collect (validate and retry) range queries on the plain NBBST.
pub struct DcBst {
    inner: Nbbst<Plain>,
    /// Give up after this many failed validations and return the last collection (keeps the
    /// harness live under extreme contention; the paper's comparators simply keep retrying).
    max_retries: usize,
}

impl DcBst {
    /// Creates an empty tree with the default retry bound (1024).
    pub fn new() -> DcBst {
        DcBst { inner: Nbbst::new_plain(), max_retries: 1024 }
    }

    /// Creates an empty tree with a custom retry bound.
    pub fn with_max_retries(max_retries: usize) -> DcBst {
        DcBst { inner: Nbbst::new_plain(), max_retries }
    }

    fn double_collect<T: PartialEq>(&self, mut collect: impl FnMut() -> T) -> T {
        let mut previous = collect();
        for _ in 0..self.max_retries {
            let current = collect();
            if current == previous {
                return current;
            }
            previous = current;
        }
        previous
    }
}

impl Default for DcBst {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentMap for DcBst {
    fn insert(&self, key: Key, value: Value) -> bool {
        self.inner.insert(key, value)
    }
    fn remove(&self, key: Key) -> bool {
        self.inner.remove(key)
    }
    fn contains(&self, key: Key) -> bool {
        self.inner.contains(key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.inner.get(key)
    }
    fn name(&self) -> &'static str {
        "DcBST"
    }
}

impl AtomicRangeMap for DcBst {
    fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        self.double_collect(|| self.inner.view().range(lo, hi))
    }
    fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        self.double_collect(|| self.inner.view().successors(key, count))
    }
    fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        if lo >= hi {
            return None;
        }
        self.double_collect(|| self.inner.view().range(lo, hi - 1))
            .into_iter()
            .find(|(k, _)| pred(*k))
    }
    fn multi_search(&self, keys: &[Key]) -> Vec<Option<Value>> {
        self.double_collect(|| self.inner.view().multi_get(keys))
    }
}

impl CameraAttached for DcBst {
    fn attached_camera(&self) -> Option<&Arc<Camera>> {
        None
    }
}

/// Best-effort views: each call revalidates via double collect, but two calls on one view
/// may observe different states. `view_at` is honestly unsupported — the tree keeps no
/// history, so no past timestamp can be answered (it used to silently return current
/// state).
impl SnapshotSource for DcBst {
    fn snapshot_view(&self) -> Box<dyn MapSnapshotView + '_> {
        Box::new(BestEffortView::new(self))
    }
    fn view_at(&self, _ts: u64) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError> {
        Err(RetentionError::Unsupported)
    }
}

/// Coarse reader-writer locking: updates share the lock, range queries are exclusive.
pub struct LockBst {
    inner: Nbbst<Plain>,
    lock: RwLock<()>,
}

impl LockBst {
    /// Creates an empty tree.
    pub fn new() -> LockBst {
        LockBst { inner: Nbbst::new_plain(), lock: RwLock::new(()) }
    }
}

impl Default for LockBst {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentMap for LockBst {
    fn insert(&self, key: Key, value: Value) -> bool {
        let _shared = self.lock.read();
        self.inner.insert(key, value)
    }
    fn remove(&self, key: Key) -> bool {
        let _shared = self.lock.read();
        self.inner.remove(key)
    }
    fn contains(&self, key: Key) -> bool {
        let _shared = self.lock.read();
        self.inner.contains(key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        let _shared = self.lock.read();
        self.inner.get(key)
    }
    fn name(&self) -> &'static str {
        "LockBST"
    }
}

impl AtomicRangeMap for LockBst {
    fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        let _exclusive = self.lock.write();
        self.inner.view().range(lo, hi)
    }
    fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        let _exclusive = self.lock.write();
        self.inner.view().successors(key, count)
    }
    fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        if lo >= hi {
            return None;
        }
        let _exclusive = self.lock.write();
        self.inner.view().range(lo, hi - 1).into_iter().find(|(k, _)| pred(*k))
    }
    fn multi_search(&self, keys: &[Key]) -> Vec<Option<Value>> {
        let _exclusive = self.lock.write();
        self.inner.view().multi_get(keys)
    }
}

impl CameraAttached for LockBst {
    fn attached_camera(&self) -> Option<&Arc<Camera>> {
        None
    }
}

/// Best-effort views: each call takes the lock exclusively, but two calls on one view may
/// observe different states. `view_at` is honestly unsupported — no history is kept.
impl SnapshotSource for LockBst {
    fn snapshot_view(&self) -> Box<dyn MapSnapshotView + '_> {
        Box::new(BestEffortView::new(self))
    }
    fn view_at(&self, _ts: u64) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError> {
        Err(RetentionError::Unsupported)
    }
}

/// Reader-writer-locked `std::collections::HashMap`: the baseline comparator for the vCAS
/// hash map. Point reads share the lock, updates take it exclusively, and multi-point
/// queries hold the read lock across the whole batch — trivially atomic, but every update
/// serializes behind the lock, which is exactly the scalability shape the lock-free table
/// is measured against.
pub struct LockHashMap {
    inner: RwLock<StdHashMap<Key, Value>>,
}

impl LockHashMap {
    /// Creates an empty map.
    pub fn new() -> LockHashMap {
        LockHashMap { inner: RwLock::new(StdHashMap::new()) }
    }
}

impl Default for LockHashMap {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentMap for LockHashMap {
    fn insert(&self, key: Key, value: Value) -> bool {
        let mut inner = self.inner.write();
        // Match the lock-free structures: a duplicate insert fails and keeps the old value.
        match inner.entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
        }
    }
    fn remove(&self, key: Key) -> bool {
        self.inner.write().remove(&key).is_some()
    }
    fn contains(&self, key: Key) -> bool {
        self.inner.read().contains_key(&key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.inner.read().get(&key).copied()
    }
    fn name(&self) -> &'static str {
        "LockHashMap"
    }
}

impl CameraAttached for LockHashMap {
    fn attached_camera(&self) -> Option<&Arc<Camera>> {
        None
    }
}

/// Best-effort views: each call holds the read lock for its own duration only, so two
/// calls on one view may observe different states. `view_at` is honestly unsupported —
/// no history is kept.
impl SnapshotSource for LockHashMap {
    fn snapshot_view(&self) -> Box<dyn MapSnapshotView + '_> {
        Box::new(BestEffortView::new(self))
    }
    fn view_at(&self, _ts: u64) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError> {
        Err(RetentionError::Unsupported)
    }
}

impl SnapshotMap for LockHashMap {
    fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        let inner = self.inner.read();
        keys.iter().map(|k| inner.get(k).copied()).collect()
    }
    fn snapshot_iter(&self) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        // Copy out under the read lock; the copy *is* the snapshot.
        let pairs: Vec<(Key, Value)> = self.inner.read().iter().map(|(&k, &v)| (k, v)).collect();
        Box::new(pairs.into_iter())
    }
    fn snapshot_len(&self) -> usize {
        self.inner.read().len()
    }
}

impl AtomicRangeMap for LockHashMap {
    fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        let mut out: Vec<(Key, Value)> = self
            .inner
            .read()
            .iter()
            .filter(|(k, _)| (lo..=hi).contains(*k))
            .map(|(&k, &v)| (k, v))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }
    fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        let mut out: Vec<(Key, Value)> =
            self.inner.read().iter().filter(|(k, _)| **k > key).map(|(&k, &v)| (k, v)).collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        out.truncate(count);
        out
    }
    fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        if lo >= hi {
            return None;
        }
        self.inner
            .read()
            .iter()
            .filter(|(k, _)| (lo..hi).contains(*k) && pred(**k))
            .map(|(&k, &v)| (k, v))
            .min_by_key(|(k, _)| *k)
    }
    fn multi_search(&self, keys: &[Key]) -> Vec<Option<Value>> {
        self.multi_get(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn exercise(map: &dyn AtomicRangeMap) {
        for k in 0..100u64 {
            assert!(map.insert(k, k + 1));
        }
        assert_eq!(map.range(10, 12), vec![(10, 11), (11, 12), (12, 13)]);
        assert_eq!(map.successors(97, 5), vec![(98, 99), (99, 100)]);
        assert_eq!(map.find_if(0, 100, &|k| k % 37 == 0 && k > 0), Some((37, 38)));
        assert_eq!(map.multi_search(&[5, 500]), vec![Some(6), None]);
        assert!(map.remove(10));
        assert!(!map.contains(10));
    }

    #[test]
    fn dcbst_basic_semantics() {
        exercise(&DcBst::new());
    }

    #[test]
    fn lockbst_basic_semantics() {
        exercise(&LockBst::new());
    }

    #[test]
    fn lockhashmap_basic_semantics() {
        exercise(&LockHashMap::new());
    }

    #[test]
    fn lockhashmap_snapshot_queries() {
        let map = LockHashMap::new();
        for k in 0..10u64 {
            map.insert(k, k * 10);
        }
        assert_eq!(map.multi_get(&[0, 9, 10]), vec![Some(0), Some(90), None]);
        assert_eq!(map.snapshot_len(), 10);
        let mut scanned: Vec<Key> = map.snapshot_iter().map(|(k, _)| k).collect();
        scanned.sort_unstable();
        assert_eq!(scanned, (0..10u64).collect::<Vec<_>>());
    }

    /// Regression test for the silent-lie API: the baselines keep no history, so under
    /// the fallible `view_at(ts)` signature they must refuse every timestamp instead of
    /// returning a current-time view pretending to be historical.
    #[test]
    fn baseline_view_at_refuses_instead_of_lying() {
        let sources: [&dyn SnapshotSource; 3] =
            [&DcBst::new(), &LockBst::new(), &LockHashMap::new()];
        for source in sources {
            for ts in [0u64, 1, u64::MAX] {
                assert!(
                    matches!(source.view_at(ts), Err(RetentionError::Unsupported)),
                    "history-less baseline must reject view_at({ts})"
                );
            }
            assert!(
                matches!(source.diff(0, 1), Err(RetentionError::Unsupported)),
                "diff over a history-less baseline must reject too"
            );
            // The honest alternative still works.
            assert!(source.snapshot_view().timestamp().is_none());
        }
    }

    #[test]
    fn dcbst_range_is_atomic_under_ordered_inserts() {
        let map = Arc::new(DcBst::new());
        let writer = {
            let map = map.clone();
            std::thread::spawn(move || {
                for k in 0..2000u64 {
                    map.insert(k, k);
                }
            })
        };
        for _ in 0..100 {
            let keys: Vec<Key> = map.range(0, u64::MAX - 2).iter().map(|(k, _)| *k).collect();
            let expected: Vec<Key> = (0..keys.len() as u64).collect();
            assert_eq!(keys, expected, "validated double collect must see a prefix");
        }
        writer.join().unwrap();
    }

    #[test]
    fn lockbst_range_is_atomic_under_ordered_inserts() {
        let map = Arc::new(LockBst::new());
        let writer = {
            let map = map.clone();
            std::thread::spawn(move || {
                for k in 0..2000u64 {
                    map.insert(k, k);
                }
            })
        };
        for _ in 0..100 {
            let keys: Vec<Key> = map.range(0, u64::MAX - 2).iter().map(|(k, _)| *k).collect();
            let expected: Vec<Key> = (0..keys.len() as u64).collect();
            assert_eq!(keys, expected, "exclusive-lock range query must see a prefix");
        }
        writer.join().unwrap();
    }
}
