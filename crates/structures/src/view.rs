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
//!   a [`RetentionError`] instead of silently wrong data. Named
//!   [`vcas_core::Anchor`]s and [`vcas_core::RetentionPolicy`]s decide which timestamps
//!   stay addressable (see `docs/time_travel.md`).
//! * **Best-effort views**, handed out by the baseline comparators (`DcBst`, `LockBst`,
//!   `LockHashMap`) and by plain-mode structures, read the current state. Each
//!   *individual* call keeps whatever atomicity the baseline's mechanism provides
//!   (double-collect validation, locking), but two calls on the same view may observe
//!   different states; their `timestamp` is `None`.
//!
//! Time-travel composes: [`SnapshotSource::diff`] reports every key that changed between
//! two retained timestamps ([`TemporalDiff`]), and [`GroupTimeTravelExt::group_view_at`]
//! pins a whole [`StructureGroup`] at one retained past timestamp for cross-structure
//! as-of reads.
//!
//! See `docs/snapshot_views.md` for the lifetime rules and the cross-structure consistency
//! story.

use vcas_core::{
    CameraAttached, CameraGroup, GroupSnapshot, RetentionError, SnapshotHandle, Timestamp,
};

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
/// heterogeneous sources; the supertrait lets a [`CameraGroup`] validate that every
/// versioned member shares its camera.
pub trait SnapshotSource: CameraAttached {
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
    /// watermark (keep an [`vcas_core::Anchor`] or a [`vcas_core::RetentionPolicy`] to
    /// keep timestamps addressable), [`RetentionError::InFuture`] when `ts` has not
    /// happened yet, and [`RetentionError::Unsupported`] on structures that keep no
    /// version history (plain-mode structures, the lock-based baselines) — which
    /// previously returned silently-wrong best-effort data from this method.
    fn view_at(&self, ts: Timestamp) -> Result<Box<dyn MapSnapshotView + '_>, RetentionError>;

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

/// A [`CameraGroup`] over heterogeneous map structures — the usual way to set up
/// cross-structure atomic reads (see [`GroupQueryExt`]).
pub type StructureGroup = CameraGroup<dyn SnapshotSource>;

/// Per-member views of a [`GroupSnapshot`]: every view is anchored at the snapshot's one
/// shared timestamp, so reads across *different structures* are mutually consistent.
///
/// The returned views borrow the snapshot, so they cannot outlive its pin.
pub trait GroupQueryExt {
    /// Opens the `index`-th member's view at the group's shared timestamp. Members with
    /// no version history (plain-mode structures, baselines) fall back to a best-effort
    /// current-state view, keeping heterogeneous groups usable.
    fn view_of(&self, index: usize) -> Box<dyn MapSnapshotView + '_>;

    /// Opens one view per member, in registration order, all at the shared timestamp.
    fn views(&self) -> Vec<Box<dyn MapSnapshotView + '_>>;
}

impl GroupQueryExt for GroupSnapshot<dyn SnapshotSource> {
    fn view_of(&self, index: usize) -> Box<dyn MapSnapshotView + '_> {
        match self.member(index).view_at(self.handle().raw()) {
            Ok(view) => view,
            // History-less members are read best-effort, exactly as before the fallible
            // redesign — the group's one shared timestamp cannot cover them anyway.
            Err(RetentionError::Unsupported) => self.member(index).snapshot_view(),
            // The group's own pin keeps its timestamp retained, and a pinned handle is
            // always strictly in the past (take_snapshot advances the counter past it).
            Err(e) => unreachable!("group timestamp must stay addressable: {e}"),
        }
    }

    fn views(&self) -> Vec<Box<dyn MapSnapshotView + '_>> {
        (0..self.len()).map(|i| self.view_of(i)).collect()
    }
}

/// As-of reads over a whole [`StructureGroup`]: the cross-structure time-travel surface.
pub trait GroupTimeTravelExt {
    /// Pins a group snapshot at **retained timestamp** `ts` (see
    /// [`vcas_core::Camera::pin_snapshot_at`] for the addressability rules), then open
    /// per-member views with [`GroupQueryExt::view_of`] — every member is read as of the
    /// same past instant.
    fn group_view_at(
        &self,
        ts: Timestamp,
    ) -> Result<GroupSnapshot<dyn SnapshotSource>, RetentionError>;
}

impl GroupTimeTravelExt for StructureGroup {
    fn group_view_at(
        &self,
        ts: Timestamp,
    ) -> Result<GroupSnapshot<dyn SnapshotSource>, RetentionError> {
        self.snapshot_at(ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_traits_are_object_safe() {
        fn _takes_view(_: &dyn MapSnapshotView) {}
        fn _takes_source(_: &dyn SnapshotSource) {}
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
