//! Temporal diff queries: what changed between two retained timestamps.
//!
//! [`diff_views`] compares two snapshot views — typically opened by
//! `SnapshotSource::diff(ts1, ts2)` at two retained timestamps — and buckets every
//! affected key as inserted, removed, or changed. Each view is traversed exactly once
//! (one wait-free version-list walk per cell per endpoint); the merge is a sorted
//! two-pointer sweep. The sort matters: unordered sources (the hash map) iterate in
//! bucket order, not key order, so a naive zip would mis-pair keys.
//!
//! Because retained snapshots are immutable, a diff between two retained timestamps is a
//! pure function of `(structure, ts1, ts2)`.

use crate::traits::{Key, Value};
use crate::view::MapSnapshotView;

/// The difference between two snapshots of one structure, oldest → newest.
///
/// Applying a diff to the older state reproduces the newer one exactly: insert
/// `inserted`, delete `removed`, overwrite `changed` — the reconciliation property the
/// `timetravel` workload driver asserts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TemporalDiff {
    /// Keys present at the newer timestamp but not the older, with their new values.
    pub inserted: Vec<(Key, Value)>,
    /// Keys present at the older timestamp but not the newer, with their old values.
    pub removed: Vec<(Key, Value)>,
    /// Keys present at both timestamps with different values, as `(key, old, new)`.
    pub changed: Vec<(Key, Value, Value)>,
}

impl TemporalDiff {
    /// Total number of affected keys.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.removed.len() + self.changed.len()
    }

    /// Did nothing change between the two timestamps?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Computes the diff from `older` to `newer`. Each view is iterated once; both sides are
/// sorted before the merge (see module docs). The result's vectors are in ascending key
/// order.
pub fn diff_views(older: &dyn MapSnapshotView, newer: &dyn MapSnapshotView) -> TemporalDiff {
    let mut old: Vec<(Key, Value)> = older.iter().collect();
    let mut new: Vec<(Key, Value)> = newer.iter().collect();
    old.sort_unstable_by_key(|(k, _)| *k);
    new.sort_unstable_by_key(|(k, _)| *k);

    let mut out = TemporalDiff::default();
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        let (ko, vo) = old[i];
        let (kn, vn) = new[j];
        match ko.cmp(&kn) {
            std::cmp::Ordering::Less => {
                out.removed.push((ko, vo));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.inserted.push((kn, vn));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if vo != vn {
                    out.changed.push((ko, vo, vn));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.removed.extend_from_slice(&old[i..]);
    out.inserted.extend_from_slice(&new[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcas_core::SnapshotHandle;

    /// A stub view yielding pairs deliberately out of key order (bucket-order simulation).
    struct Stub(Vec<(Key, Value)>);
    impl MapSnapshotView for Stub {
        fn get(&self, key: Key) -> Option<Value> {
            self.0.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
        }
        fn iter(&self) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
            Box::new(self.0.iter().copied())
        }
        fn range_iter(&self, lo: Key, hi: Key) -> Box<dyn Iterator<Item = (Key, Value)> + '_> {
            crate::view::sorted_range(self.iter(), lo, hi)
        }
        fn timestamp(&self) -> Option<SnapshotHandle> {
            None
        }
    }

    #[test]
    fn diff_buckets_inserts_removes_and_changes() {
        // Out-of-order iteration on both sides must not confuse the merge.
        let older = Stub(vec![(5, 50), (1, 10), (3, 30), (7, 70)]);
        let newer = Stub(vec![(9, 90), (3, 31), (5, 50), (8, 80)]);
        let d = diff_views(&older, &newer);
        assert_eq!(d.inserted, vec![(8, 80), (9, 90)]);
        assert_eq!(d.removed, vec![(1, 10), (7, 70)]);
        assert_eq!(d.changed, vec![(3, 30, 31)]);
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
    }

    #[test]
    fn diff_of_identical_views_is_empty() {
        let a = Stub(vec![(2, 20), (4, 40)]);
        let b = Stub(vec![(4, 40), (2, 20)]);
        let d = diff_views(&a, &b);
        assert!(d.is_empty());
        assert_eq!(d, TemporalDiff::default());
    }

    #[test]
    fn diff_reconciles_old_state_into_new() {
        let older = Stub(vec![(1, 10), (2, 20), (3, 30)]);
        let newer = Stub(vec![(2, 21), (3, 30), (4, 40), (5, 50)]);
        let d = diff_views(&older, &newer);

        // Apply the diff to the older state: the reconciliation property.
        let mut model: std::collections::BTreeMap<Key, Value> =
            older.iter().collect::<Vec<_>>().into_iter().collect();
        for (k, _) in &d.removed {
            assert!(model.remove(k).is_some());
        }
        for (k, v) in &d.inserted {
            assert!(model.insert(*k, *v).is_none());
        }
        for (k, old, new) in &d.changed {
            assert_eq!(model.insert(*k, *new), Some(*old));
        }
        let expect: std::collections::BTreeMap<Key, Value> =
            newer.iter().collect::<Vec<_>>().into_iter().collect();
        assert_eq!(model, expect);
    }
}
