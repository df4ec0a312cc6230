//! A lock-free open-bucket hash table with constant-time snapshots, generic over the
//! pointer-cell [`Mode`]: `VcasHashMap<Versioned>` (the default) is the snapshot-capable
//! table, `VcasHashMap<Plain>` ([`VcasHashMap::new_plain`]) its unversioned twin.
//!
//! The table is a fixed, power-of-two array of buckets, and a bucket is nothing but the
//! head cell of a Harris list holding the keys that hash to it: there is no sentinel node
//! and no per-bucket state. The table holds one mode (so one camera) and one reclaim
//! cursor, and runs the list's operations ([`crate::list`]) on the bucket's head cell. In
//! versioned mode the head cells and every `next` pointer are vCAS objects on that one
//! camera, so a multi-point query takes a *single* [`Camera::take_snapshot`] and reads
//! every bucket at that handle: a [`VcasHashMapView`] (and so [`VcasHashMap::multi_get`])
//! observes one timestamp across the whole table, exactly as the paper's recipe prescribes
//! (version the pointers whose values determine the abstract state, then snapshot the
//! camera they are registered with).
//!
//! Point operations keep the list's lock-freedom and expected O(1 + load-factor) cost.
//! The table does not resize; choose the bucket count from the expected size and target
//! load factor via [`VcasHashMap::buckets_for`] (the workload harness's `bucket_count`
//! does exactly that).

use std::sync::Arc;

use vcas_core::reclaim::{CollectStats, Collectible, VersionStats};
use vcas_core::{
    Camera, CameraAttached, Mode, PinnedSnapshot, Plain, RetentionError, SnapshotHandle, Versioned,
};
use vcas_ebr::{pin, Guard};

use crate::list::{self, NextCell, ReclaimCursor};
use crate::traits::{AtomicRangeMap, ConcurrentMap, Key, SnapshotMap, Value};
use crate::view::{sorted_range, MapSnapshotView, SnapshotSource};

/// Fibonacci multiplicative hashing constant (2^64 / phi), the usual odd multiplier.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Lock-free open-bucket hash map (see module docs). Versioned buckets share the table's
/// camera, so multi-point reads are atomic; plain buckets make them *non-atomic* (the
/// weakly-consistent baseline, like the plain tree's views).
pub struct VcasHashMap<M: Mode = Versioned> {
    /// Power-of-two array of bucket head cells; `mask == buckets.len() - 1`.
    buckets: Box<[NextCell<M>]>,
    mask: u64,
    mode: M,
    /// Resume bucket and key for incremental version-list collection ([`Collectible`]).
    reclaim_cursor: ReclaimCursor,
}

impl VcasHashMap<Plain> {
    /// The unversioned table (`HashMap` in benchmark output): lock-free point ops, but
    /// its views read the current state, so multi-point reads are non-atomic. Rounds
    /// `buckets` up to a power of two.
    pub fn new_plain(buckets: usize) -> VcasHashMap<Plain> {
        Self::with_mode(Plain, buckets)
    }
}

impl VcasHashMap {
    /// The snapshot-capable table (`VcasHashMap`): bucket pointers are versioned CAS
    /// objects registered with `camera`. Rounds `buckets` up to a power of two.
    pub fn new_versioned(camera: &Arc<Camera>, buckets: usize) -> VcasHashMap {
        Self::with_mode(Versioned::new(camera), buckets)
    }

    /// A snapshot-capable table with a private camera and a default bucket count (256).
    pub fn new_versioned_default() -> VcasHashMap {
        Self::new_versioned(&Camera::new(), 256)
    }

    /// Bucket count for holding `capacity` keys at `load_factor` keys per bucket,
    /// rounded up to a power of two. `load_factor` at or below zero is treated as 1.0.
    pub fn buckets_for(capacity: u64, load_factor: f64) -> usize {
        let lf = if load_factor > 0.0 { load_factor } else { 1.0 };
        (((capacity as f64 / lf).ceil() as usize).max(1)).next_power_of_two()
    }
}

impl<M: Mode> VcasHashMap<M> {
    fn with_mode(mode: M, buckets: usize) -> VcasHashMap<M> {
        let n = buckets.max(1).next_power_of_two();
        let buckets = (0..n).map(|_| list::empty(&mode)).collect();
        let reclaim_cursor = ReclaimCursor::default();
        VcasHashMap { buckets, mask: (n - 1) as u64, mode, reclaim_cursor }
    }

    /// The camera associated with a versioned table.
    pub fn camera(&self) -> Option<&Arc<Camera>> {
        self.mode.camera()
    }

    /// Number of buckets (always a power of two).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn bucket_of(&self, key: Key) -> &NextCell<M> {
        // Multiplicative hash, taking high bits so nearby keys spread across buckets.
        let h = key.wrapping_mul(HASH_MUL);
        &self.buckets[((h >> 32) & self.mask) as usize]
    }

    // ----- point operations --------------------------------------------------------------

    /// Inserts `key` with `value`; returns `false` if the key was already present.
    pub fn insert(&self, key: Key, value: Value) -> bool {
        list::insert(&self.mode, self.bucket_of(key), key, value)
    }

    /// Removes `key`; returns `false` if it was not present.
    pub fn remove(&self, key: Key) -> bool {
        list::remove(&self.mode, self.bucket_of(key), key)
    }

    /// Returns the value associated with `key`, if any.
    pub fn get(&self, key: Key) -> Option<Value> {
        list::get(&self.mode, self.bucket_of(key), key)
    }

    /// Does the map currently contain `key`?
    pub fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    // ----- snapshot queries --------------------------------------------------------------
    //
    // Every multi-point query runs against a [`VcasHashMapView`] through the
    // [`MapSnapshotView`] trait: one snapshot of the shared camera covers the whole
    // bucket array, and one EBR pin serves the whole batch.

    /// Opens a pinned snapshot view of the whole table's state right now (the primary
    /// multi-point query surface; see [`crate::view`]). In plain mode the view reads
    /// current state.
    pub fn view(&self) -> VcasHashMapView<'_, M> {
        VcasHashMapView::new(self, self.mode.pin_snapshot())
    }

    /// Opens a view of the whole table **as of** timestamp `ts` — any retained
    /// timestamp. The view pins `ts` ([`vcas_core::Camera::pin_snapshot_at`]), so it
    /// stays exact until dropped. Fails if `ts` is below the retention watermark, in the
    /// future, or if the table is in plain (history-less) mode.
    pub fn view_at(&self, ts: u64) -> Result<VcasHashMapView<'_, M>, RetentionError> {
        Ok(VcasHashMapView::new(self, Some(self.mode.pin_snapshot_at(ts)?)))
    }

    /// Looks up every key in `keys` against one snapshot. Kept for the repository
    /// benchmark, which calls it by this name: a forwarder to
    /// [`MapSnapshotView::multi_get`].
    pub fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        self.view().multi_get(keys)
    }

    /// Every live `(key, value)` pair at a single snapshot timestamp, sorted by key. Kept
    /// for the repository benchmark, which calls it by this name: a forwarder to
    /// [`MapSnapshotView::range`].
    pub fn snapshot_scan(&self) -> Vec<(Key, Value)> {
        self.view().range(0, Key::MAX)
    }
}

/// A snapshot view of a [`VcasHashMap`]: every query on one view observes the same
/// timestamp across *all* buckets (see [`VcasHashMap::view`] / [`VcasHashMap::view_at`]).
/// Holds the snapshot pin (when pinned) and one EBR guard for its whole lifetime.
pub struct VcasHashMapView<'a, M: Mode = Versioned> {
    map: &'a VcasHashMap<M>,
    /// Keeps the snapshot registered with the camera so version-list truncation cannot
    /// reclaim versions this view may read.
    _pin: Option<PinnedSnapshot>,
    handle: Option<SnapshotHandle>,
    guard: Guard,
}

impl<'a, M: Mode> VcasHashMapView<'a, M> {
    fn new(map: &'a VcasHashMap<M>, pinned: Option<PinnedSnapshot>) -> VcasHashMapView<'a, M> {
        let handle = pinned.as_ref().map(PinnedSnapshot::handle);
        VcasHashMapView { map, _pin: pinned, handle, guard: pin() }
    }
}

impl<M: Mode> MapSnapshotView for VcasHashMapView<'_, M> {
    fn get(&self, key: Key) -> Option<Value> {
        let bucket = self.map.bucket_of(key);
        let mode = &self.map.mode;
        list::cursor(mode, bucket, self.handle, &self.guard, key, key).next().map(|(_, v)| v)
    }
    /// "Ordered query on a hash map" is definitionally a full scan and a sort.
    fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        sorted_range(self.iter(), lo, hi)
    }
    fn timestamp(&self) -> Option<SnapshotHandle> {
        self.handle
    }
    /// Streams the buckets in order (key order within a bucket, not globally), each
    /// through the list cursor on this view's handle and guard: nothing is materialized.
    fn iter(&self) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        let (mode, handle, guard) = (&self.map.mode, self.handle, &self.guard);
        let buckets = self.map.buckets.iter();
        Box::new(buckets.flat_map(move |b| list::cursor(mode, b, handle, guard, 0, Key::MAX)))
    }
}

/// Incremental version-list collection: the budget is spread across the bucket lists in
/// order, resuming at the bucket and key where the previous bounded pass stopped. Update
/// hooks need no wiring here — the list operations drive [`Camera::reclaim_tick`] on the
/// table's camera. Data-node reclamation likewise comes from the lists: every node carries
/// a version-held reference count, so truncating a bucket's version lists retires nodes
/// whose last reference went (counted into the camera's `nodes_retired`), and dropping
/// the table destroys the head cells, whose cascades free every remaining node — see the
/// node-conservation test in `tests/node_reclaim.rs`.
impl<M: Mode> Collectible for VcasHashMap<M> {
    fn collect_bounded(&self, min_active: u64, budget: usize, guard: &Guard) -> CollectStats {
        let (mode, cursor) = (&self.mode, &self.reclaim_cursor);
        list::collect_bounded(mode, &self.buckets, cursor, min_active, budget, guard)
    }

    fn version_stats(&self, guard: &Guard) -> VersionStats {
        list::version_stats(&self.mode, &self.buckets, guard)
    }
}

impl<M: Mode> Drop for VcasHashMap<M> {
    fn drop(&mut self) {
        let buckets = std::mem::take(&mut self.buckets);
        list::destroy(&self.mode, buckets.into_vec());
    }
}

impl<M: Mode> CameraAttached for VcasHashMap<M> {
    fn attached_camera(&self) -> Option<&Arc<Camera>> {
        self.camera()
    }
}

impl<M: Mode> SnapshotSource for VcasHashMap<M> {
    fn snapshot_view(&self) -> Box<dyn MapSnapshotView + '_> {
        Box::new(self.view())
    }
    fn view_at(&self, ts: u64) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError> {
        Ok(Box::new(VcasHashMap::view_at(self, ts)?))
    }
}

impl<M: Mode> ConcurrentMap for VcasHashMap<M> {
    fn insert(&self, key: Key, value: Value) -> bool {
        VcasHashMap::insert(self, key, value)
    }
    fn remove(&self, key: Key) -> bool {
        VcasHashMap::remove(self, key)
    }
    fn contains(&self, key: Key) -> bool {
        VcasHashMap::contains(self, key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        VcasHashMap::get(self, key)
    }
    fn name(&self) -> &'static str {
        if M::VERSIONED {
            "VcasHashMap"
        } else {
            "HashMap"
        }
    }
}

/// `multi_get` comes from the trait's view-based default.
impl<M: Mode> SnapshotMap for VcasHashMap<M> {}

/// Ordered queries on a hash map scan the whole table (O(buckets + n)); they exist so the
/// generic workload driver and query harness can drive the hash map, and they are atomic
/// in versioned mode because each call's view reads one snapshot. All methods are the
/// trait's view-based defaults (the view's sort-based ordered queries).
impl<M: Mode> AtomicRangeMap for VcasHashMap<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as StdHashMap;

    fn plain() -> VcasHashMap<Plain> {
        VcasHashMap::new_plain(8)
    }

    fn versioned() -> VcasHashMap {
        VcasHashMap::new_versioned(&Camera::new(), 8)
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        assert_eq!(VcasHashMap::new_plain(1).bucket_count(), 1);
        assert_eq!(VcasHashMap::new_plain(3).bucket_count(), 4);
        assert_eq!(VcasHashMap::new_plain(0).bucket_count(), 1);
        assert_eq!(VcasHashMap::buckets_for(100, 0.5), 256);
        assert_eq!(VcasHashMap::buckets_for(100, 4.0), 32);
        assert_eq!(VcasHashMap::buckets_for(0, -1.0), 1);
    }

    #[test]
    fn sequential_map_semantics() {
        for_both_modes!(|map| {
            assert!(map.view().is_empty());
            assert!(map.insert(3, 30));
            assert!(map.insert(1, 10));
            assert!(!map.insert(3, 99), "duplicate insert must fail and keep the old value");
            assert_eq!(map.get(3), Some(30));
            assert!(map.remove(3));
            assert!(!map.remove(3));
            assert_eq!(map.get(3), None);
            assert_eq!(map.view().len(), 1);
            assert_eq!(map.snapshot_scan(), vec![(1, 10)]);
        });
    }

    #[test]
    fn matches_model_on_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for_both_modes!(|map| {
            let mut model = StdHashMap::new();
            for _ in 0..3000 {
                let k = rng.gen_range(0..200u64);
                match rng.gen_range(0..3) {
                    0 => {
                        let v = rng.gen_range(0..1_000u64);
                        let expected = !model.contains_key(&k);
                        assert_eq!(map.insert(k, v), expected);
                        model.entry(k).or_insert(v);
                    }
                    1 => assert_eq!(map.remove(k), model.remove(&k).is_some()),
                    _ => assert_eq!(map.get(k), model.get(&k).copied()),
                }
            }
            let mut expected: Vec<(Key, Value)> = model.into_iter().collect();
            expected.sort_unstable_by_key(|(k, _)| *k);
            assert_eq!(map.snapshot_scan(), expected);
        });
    }

    #[test]
    fn multi_get_matches_individual_gets_sequentially() {
        for_both_modes!(|map| {
            for k in (0..100u64).step_by(2) {
                map.insert(k, k * 3);
            }
            let keys: Vec<Key> = (0..20u64).collect();
            let batched = map.multi_get(&keys);
            let individual: Vec<Option<Value>> = keys.iter().map(|&k| map.get(k)).collect();
            assert_eq!(batched, individual);
        });
    }

    #[test]
    fn snapshot_iter_is_atomic_under_ordered_inserts() {
        let map = std::sync::Arc::new(VcasHashMap::new_versioned(&Camera::new(), 16));
        let writer = {
            let map = map.clone();
            std::thread::spawn(move || {
                for k in 0..1500u64 {
                    map.insert(k, k);
                }
            })
        };
        for _ in 0..100 {
            let mut keys: Vec<Key> = map.view().iter().map(|(k, _)| k).collect();
            keys.sort_unstable();
            let expected: Vec<Key> = (0..keys.len() as u64).collect();
            assert_eq!(keys, expected, "snapshot must observe a gap-free insertion prefix");
        }
        writer.join().unwrap();
        assert_eq!(map.view().len(), 1500);
    }

    #[test]
    fn bounded_collection_sweeps_every_bucket() {
        let camera = Camera::new();
        let map = VcasHashMap::new_versioned(&camera, 16);
        for k in 1..=200u64 {
            camera.take_snapshot();
            map.insert(k, k);
        }
        // Churn every key (remove + re-insert) so interior cells accumulate versions while
        // the physical bucket lists stay populated.
        for k in 1..=200u64 {
            camera.take_snapshot();
            map.remove(k);
            camera.take_snapshot();
            map.insert(k, k * 2);
        }
        let guard = pin();
        let before = Collectible::version_stats(&map, &guard);
        assert!(before.max_versions_per_cell > 1);

        let min_active = camera.min_active();
        let mut passes = 0;
        loop {
            let s = map.collect_bounded(min_active, 16, &guard);
            passes += 1;
            assert!(passes < 1000, "bounded collection must terminate");
            assert!(s.cells_visited <= 16, "slice exceeded its budget");
            if s.completed_cycle {
                break;
            }
        }
        assert!(passes > 1, "budget 16 across 16 churned buckets must need several slices");
        let after = Collectible::version_stats(&map, &guard);
        assert_eq!(after.max_versions_per_cell, 1, "no pins: one version per cell remains");
        assert_eq!(map.view().len(), 200, "collection must not change the abstract state");
        assert_eq!(map.get(7), Some(14));
    }

    #[test]
    fn amortized_hook_fires_through_bucket_updates() {
        use vcas_core::ReclaimPolicy;
        let camera = Camera::new();
        let map = Arc::new(VcasHashMap::new_versioned(&camera, 8));
        camera.register_collectible(&map);
        ReclaimPolicy::Amortized { every_n_updates: 16, budget: 256 }.install(&camera);
        for round in 0..30u64 {
            for k in 1..=64u64 {
                camera.take_snapshot();
                if round % 2 == 0 {
                    map.insert(k, k);
                } else {
                    map.remove(k);
                }
            }
        }
        // The map's updates run the list operations on its buckets, whose hooks tick.
        assert!(camera.versions_retired() > 0, "bucket update hooks never collected");
        let guard = pin();
        let stats = Collectible::version_stats(map.as_ref(), &guard);
        assert!(stats.max_versions_per_cell < 30, "unbounded growth despite hooks: {stats:?}");
    }

    #[test]
    fn range_interface_works_despite_hashing() {
        for_both_modes!(|map| {
            for k in 0..64u64 {
                map.insert(k, k + 1);
            }
            assert_eq!(map.range(10, 12), vec![(10, 11), (11, 12), (12, 13)]);
            assert_eq!(map.successors(61, 5), vec![(62, 63), (63, 64)]);
            assert_eq!(map.find_if(0, 64, &|k| k % 37 == 0 && k > 0), Some((37, 38)));
            assert_eq!(map.multi_get(&[5, 500]), vec![Some(6), None]);
            assert_eq!(map.find_if(5, 5, &|_| true), None);
        });
    }
}
