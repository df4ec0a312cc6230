//! First-class snapshot views: the primary multi-point query surface.
//!
//! The paper's headline API is an explicit two-step protocol — constant-time
//! `takeSnapshot()` returning a handle, then wait-free `readSnapshot(handle)`. This module
//! reifies that protocol at the data-structure level: [`SnapshotSource::snapshot_view`]
//! opens a [`MapSnapshotView`], a read-only handle onto the structure *at one timestamp*.
//! Every query made through one view observes the same instant, so callers can compose
//! arbitrarily many `get` / `range` / `iter` calls into one atomic multi-point read — and
//! pay for the snapshot (and its EBR pin) once per view instead of once per query.
//!
//! Every view, whatever structure it reads, answers the same queries through the one
//! [`MapSnapshotView`] trait: a view implements `get`, one ordered cursor (`range_iter`)
//! and `timestamp`, and every other query is a default method over them. Views come in
//! three kinds:
//!
//! * **Pinned views** ([`SnapshotSource::snapshot_view`]) register their timestamp with the
//!   camera ([`vcas_core::Camera::pin_snapshot`]), so version-list truncation
//!   ([`vcas_core::Collectible::collect_bounded`]) can never reclaim a version the view may
//!   still read. This is the default and the only safe choice for long-lived views.
//! * **As-of views** ([`SnapshotSource::view_at`]) open the structure at an **arbitrary
//!   retained timestamp** — not just one being taken right now. They pin internally
//!   ([`vcas_core::Camera::pin_snapshot_at`]) and are fallible: a timestamp below the
//!   retention watermark, in the future, or addressed to a history-less structure yields
//!   a [`RetentionError`] instead of silently wrong data. Held
//!   [`PinnedSnapshot`]s and the floor set by [`vcas_core::Camera::keep_newer_than`]
//!   decide which timestamps stay addressable (see `docs/time_travel.md`).
//! * **Best-effort views**, handed out by the baseline comparators (`DcBst`, `LockBst`,
//!   `LockHashMap`) and by plain-mode structures, read the current state. Each
//!   *individual* call keeps whatever atomicity the baseline's mechanism provides
//!   (double-collect validation, locking), but two calls on the same view may observe
//!   different states; their `timestamp` is `None`.
//!
//! Time-travel composes: [`SnapshotSource::diff`] reports every key that changed between
//! two retained timestamps ([`TemporalDiff`]), and [`SnapshotSource::view_in`] opens a
//! view at a caller's [`PinnedSnapshot`]: a cross-structure atomic read (now or as of a
//! retained past timestamp) is one pin, then one `view_in` per structure sharing its
//! camera.
//!
//! See `docs/snapshot_views.md` for the lifetime rules and the cross-structure consistency
//! story.

use std::sync::Arc;

use vcas_core::{Camera, PinnedSnapshot, RetentionError, SnapshotHandle, Timestamp};

use crate::diff::{diff_views, TemporalDiff};
use crate::traits::{Key, Value};

/// A read-only view of a map at (ideally) a single snapshot timestamp.
///
/// # One query surface
///
/// A view implements three methods natively: [`MapSnapshotView::get`] (an
/// allocation-free point read), [`MapSnapshotView::range_iter`] (its one ordered cursor)
/// and [`MapSnapshotView::timestamp`]. Every other query — `contains`, `multi_get`,
/// `iter`, `len`, `range`, `successors`, `find_if` — is a default method over those, so
/// each structure codes each traversal once. The paper's point: once a snapshot is taken,
/// a multi-point query is a standard sequential algorithm on it.
///
/// Ordered views (`NbbstView`, `HarrisListView`, `VcasSkipListView`) serve `range_iter`
/// lazily, positioning inside the pinned snapshot and yielding one pair per pointer
/// chase, so consumers that stop early (`find_if`, `successors` with a small `count`)
/// pay for what they consume. Unordered views (the hash maps) serve it by sorting their
/// `iter` (`sorted_range`), which is `O(n log n)` whatever the caller consumes.
///
/// A view overrides a default only where the default would change its cost class: the
/// hash view streams `iter` bucket by bucket instead of sorting, the list view answers
/// `multi_get` in one pass, and the lock and double-collect baselines make each batched
/// read one locked or validated call.
///
/// Every method of one view observes the same timestamp whenever
/// [`MapSnapshotView::timestamp`] is `Some`; best-effort views return `None` there and
/// make no cross-call guarantee. See `docs/ordered_queries.md` for the full contract.
pub trait MapSnapshotView {
    /// The value associated with `key` in this view.
    fn get(&self, key: Key) -> Option<Value>;

    /// Streaming in-order iterator over every pair with `lo <= key <= hi` (empty when
    /// `lo > hi`): the view's one ordered cursor (see the trait docs).
    fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_>;

    /// The snapshot timestamp this view is anchored at, or `None` for a best-effort view
    /// (which reads current state and makes no cross-call guarantee).
    fn timestamp(&self) -> Option<SnapshotHandle>;

    /// Does this view contain `key`?
    fn contains(&self, key: Key) -> bool {
        self.get(key).is_some()
    }

    /// Looks up every key in `keys` against this view.
    fn multi_get(&self, keys: &[Key]) -> Vec<Option<Value>> {
        keys.iter().map(|&k| self.get(k)).collect()
    }

    /// Iterates over every `(key, value)` pair live in this view. Ordered structures yield
    /// ascending key order; unordered structures may yield an unspecified order.
    fn iter(&self) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        self.range_iter(0, Key::MAX)
    }

    /// Number of live keys in this view.
    fn len(&self) -> usize {
        self.iter().count()
    }

    /// Does this view contain no keys?
    fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Every `(key, value)` pair with `lo <= key <= hi`, in ascending key order.
    fn range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        self.range_iter(lo, hi).collect()
    }

    /// Streaming in-order iterator over every pair with key **strictly greater** than
    /// `key` (unbounded above; combine with [`Iterator::take`] for `succ(k, c)`).
    fn successors_iter(&self, key: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
        if key == Key::MAX {
            return Box::new(std::iter::empty());
        }
        self.range_iter(key + 1, Key::MAX)
    }

    /// Up to `count` `(key, value)` pairs with key strictly greater than `key`, ascending.
    /// On an ordered view this stops after `count` pairs.
    fn successors(&self, key: Key, count: usize) -> Vec<(Key, Value)> {
        self.successors_iter(key).take(count).collect()
    }

    /// The first `(key, value)` pair in `[lo, hi)` (key order) whose key satisfies `pred`.
    /// Stops at the first match, so on an ordered view a match near `lo` costs
    /// `O(log n + 1)`, not a scan of the range.
    fn find_if(&self, lo: Key, hi: Key, pred: &dyn Fn(Key) -> bool) -> Option<(Key, Value)> {
        if lo >= hi {
            return None;
        }
        self.range_iter(lo, hi - 1).find(|&(k, _)| pred(k))
    }
}

/// The ordered cursor of an unordered view: the pairs of `pairs` with `lo <= key <= hi`,
/// collected and sorted by key (`O(n log n)`, fully materialized).
pub(crate) fn sorted_range<'a>(
    pairs: impl Iterator<Item = (Key, Value)>,
    lo: Key,
    hi: Key,
) -> Box<dyn Iterator<Item = (Key, Value)> + 'a> {
    let mut out: Vec<(Key, Value)> = pairs.filter(|(k, _)| (lo..=hi).contains(k)).collect();
    out.sort_unstable_by_key(|(k, _)| *k);
    Box::new(out.into_iter())
}

/// A structure that can open snapshot views of itself (see module docs).
///
/// Object-safe, like the other structure traits, so the workload harness can hold
/// heterogeneous sources.
pub trait SnapshotSource: Send + Sync {
    /// The camera this structure's versioned CAS objects are associated with, or `None`
    /// for a structure that keeps no history (plain mode, the baselines).
    fn camera(&self) -> Option<&Arc<Camera>>;

    /// Opens a *pinned* view of the structure's state right now. Valid until dropped, even
    /// across version-list truncation; drop it promptly anyway — while alive it also holds
    /// an EBR pin, delaying memory reclamation.
    fn snapshot_view(&self) -> Box<dyn MapSnapshotView + '_>;

    /// Opens a consistent view of the structure **as of** timestamp `ts` — any retained
    /// timestamp, not just one being pinned right now. The view pins `ts` internally
    /// ([`vcas_core::Camera::pin_snapshot_at`]), so it stays exact until dropped even
    /// under concurrent truncation.
    ///
    /// Fails with [`RetentionError::Truncated`] when `ts` is below the camera's retention
    /// watermark (hold a [`PinnedSnapshot`] or lower the floor with
    /// [`vcas_core::Camera::keep_newer_than`] to keep timestamps addressable),
    /// [`RetentionError::InFuture`] when `ts` has not happened yet, and
    /// [`RetentionError::Unsupported`] on structures that keep no version history
    /// (plain-mode structures, the lock-based baselines) — which previously returned
    /// silently-wrong best-effort data from this method.
    fn view_at(&self, ts: Timestamp) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError>;

    /// Opens a view at `pin`'s timestamp: the cross-structure atomic read is one pin on a
    /// shared camera, then one `view_in` per structure, and every such view observes the
    /// same instant. The view takes its own pin, so it may outlive `pin`.
    ///
    /// Fails with [`RetentionError::ForeignCamera`] when `pin` was taken on another camera
    /// (its timestamp names no instant of this structure's history), and with
    /// [`RetentionError::Unsupported`] on a structure that keeps no history, as
    /// [`SnapshotSource::view_at`] does.
    fn view_in(
        &self,
        pin: &PinnedSnapshot,
    ) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError> {
        match self.camera() {
            Some(camera) if !Arc::ptr_eq(camera, pin.camera()) => {
                Err(RetentionError::ForeignCamera)
            }
            _ => self.view_at(pin.handle().raw()),
        }
    }

    /// Every key inserted, removed, or changed between `ts1` and `ts2` (order
    /// irrelevant — the endpoints are normalized). Opens one as-of view per endpoint and
    /// walks each once; see [`diff_views`].
    fn diff(&self, ts1: Timestamp, ts2: Timestamp) -> Result<TemporalDiff, RetentionError> {
        let (lo, hi) = (ts1.min(ts2), ts1.max(ts2));
        let older = self.view_at(lo)?;
        let newer = self.view_at(hi)?;
        Ok(diff_views(older.as_ref(), newer.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bst::Nbbst;
    use crate::hashmap::VcasHashMap;

    #[test]
    fn view_traits_are_object_safe() {
        fn _takes_view(_: &dyn MapSnapshotView) {}
        fn _takes_source(_: &dyn SnapshotSource) {}
    }

    #[test]
    fn view_in_rejects_a_pin_from_another_camera() {
        let tree = Nbbst::new_versioned_default();
        let foreign = Camera::new().pin_snapshot();
        let err = tree.view_in(&foreign).map(|_| ()).unwrap_err();
        assert_eq!(err, RetentionError::ForeignCamera);
        assert!(err.to_string().contains("different camera"));
        assert_eq!(tree.camera().unwrap().pinned_count(), 0, "a refused view pins nothing");
    }

    /// One pin, one `view_in` per structure: every view reports the pin's timestamp, and
    /// dropping everything releases every pin the read took.
    #[test]
    fn views_in_one_pin_share_its_timestamp() {
        let camera = Camera::new();
        let tree = Arc::new(Nbbst::new_versioned(&camera));
        let map = Arc::new(VcasHashMap::new_versioned(&camera, 16));
        tree.insert(1, 10);
        map.insert(2, 20);
        let sources: [Arc<dyn SnapshotSource>; 2] = [tree.clone(), map.clone()];

        let pin = camera.pin_snapshot();
        tree.insert(3, 30);
        let views: Vec<_> = sources.iter().map(|s| s.view_in(&pin).unwrap()).collect();
        assert_eq!(views[0].timestamp(), Some(pin.handle()));
        assert_eq!(views[1].timestamp(), Some(pin.handle()));
        assert_eq!(views[0].get(3), None, "a write after the pin is not in its views");
        assert_eq!(views[1].get(2), Some(20));
        assert_eq!(camera.pinned_count(), 3, "each view holds its own pin");
        drop(pin);
        assert_eq!(views[0].get(1), Some(10), "views outlive the pin they were opened in");
        drop(views);
        assert_eq!(camera.pinned_count(), 0);
    }

    #[test]
    fn default_ordered_queries_sort_an_unordered_iter() {
        // A stub view yielding pairs out of order, with the sorting cursor of the
        // unordered views, must still answer ordered queries in key order.
        struct Stub;
        impl MapSnapshotView for Stub {
            fn get(&self, key: Key) -> Option<Value> {
                [(5u64, 50u64), (1, 10), (3, 30)].iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
            }
            fn iter(&self) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
                Box::new([(5u64, 50u64), (1, 10), (3, 30)].into_iter())
            }
            fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
                sorted_range(self.iter(), lo, hi)
            }
            fn timestamp(&self) -> Option<SnapshotHandle> {
                None
            }
        }
        let v = Stub;
        assert_eq!(v.range(1, 4), vec![(1, 10), (3, 30)]);
        assert_eq!(v.successors(1, 1), vec![(3, 30)]);
        assert_eq!(v.find_if(0, 10, &|k| k > 1), Some((3, 30)));
        assert_eq!(v.multi_get(&[3, 4]), vec![Some(30), None]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert!(v.contains(5));
        assert!(!v.contains(2));
        assert_eq!(v.find_if(5, 5, &|_| true), None);
        assert_eq!(v.find_if(0, 0, &|_| true), None);
        // The streaming defaults route through the same fallback and agree with it.
        assert_eq!(v.range_iter(1, 4).collect::<Vec<_>>(), v.range(1, 4));
        assert_eq!(v.successors_iter(1).collect::<Vec<_>>(), vec![(3, 30), (5, 50)]);
        assert!(v.successors_iter(Key::MAX).next().is_none());
    }
}
