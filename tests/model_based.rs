//! Property-based (model) tests: every structure is compared against a sequential model over
//! random operation sequences, including snapshot reads checked against the model state
//! recorded when the snapshot was taken.

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;

use vcas_repro::core::{Camera, Mode, VersionedCas};
use vcas_repro::ebr::pin;
use vcas_repro::structures::{AtomicRangeMap, HarrisList, MsQueue, Nbbst};

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
    Snapshot,
}

fn map_op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0..64u64, 0..1000u64).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (0..64u64).prop_map(MapOp::Remove),
        (0..64u64).prop_map(MapOp::Get),
        (0..64u64, 0..16u64).prop_map(|(lo, span)| MapOp::Range(lo, lo + span)),
        Just(MapOp::Snapshot),
    ]
}

fn check_map_against_model(ops: Vec<MapOp>, tree: &dyn Fn() -> Box<dyn MapUnderTest>) {
    let sut = tree();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match op {
            MapOp::Insert(k, v) => {
                let expected = !model.contains_key(&k);
                if expected {
                    model.insert(k, v);
                }
                assert_eq!(sut.insert(k, v), expected, "insert({k})");
            }
            MapOp::Remove(k) => {
                let expected = model.remove(&k).is_some();
                assert_eq!(sut.remove(k), expected, "remove({k})");
            }
            MapOp::Get(k) => {
                assert_eq!(sut.get(k), model.get(&k).copied(), "get({k})");
            }
            MapOp::Range(lo, hi) => {
                let expected: Vec<(u64, u64)> =
                    model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(sut.range(lo, hi), expected, "range({lo},{hi})");
            }
            MapOp::Snapshot => {
                let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(sut.scan(), expected, "full scan");
            }
        }
    }
}

trait MapUnderTest {
    fn insert(&self, k: u64, v: u64) -> bool;
    fn remove(&self, k: u64) -> bool;
    fn get(&self, k: u64) -> Option<u64>;
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)>;
    fn scan(&self) -> Vec<(u64, u64)>;
}

impl<M: Mode> MapUnderTest for Nbbst<M> {
    fn insert(&self, k: u64, v: u64) -> bool {
        Nbbst::insert(self, k, v)
    }
    fn remove(&self, k: u64) -> bool {
        Nbbst::remove(self, k)
    }
    fn get(&self, k: u64) -> Option<u64> {
        Nbbst::get(self, k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        AtomicRangeMap::range(self, lo, hi)
    }
    fn scan(&self) -> Vec<(u64, u64)> {
        AtomicRangeMap::range(self, 0, u64::MAX)
    }
}

impl<M: Mode> MapUnderTest for HarrisList<M> {
    fn insert(&self, k: u64, v: u64) -> bool {
        HarrisList::insert(self, k, v)
    }
    fn remove(&self, k: u64) -> bool {
        HarrisList::remove(self, k)
    }
    fn get(&self, k: u64) -> Option<u64> {
        HarrisList::get(self, k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        AtomicRangeMap::range(self, lo, hi)
    }
    fn scan(&self) -> Vec<(u64, u64)> {
        AtomicRangeMap::range(self, 0, u64::MAX)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn versioned_bst_matches_btreemap(ops in proptest::collection::vec(map_op_strategy(), 1..250)) {
        check_map_against_model(ops, &|| Box::new(Nbbst::new_versioned_default()));
    }

    #[test]
    fn plain_bst_matches_btreemap(ops in proptest::collection::vec(map_op_strategy(), 1..250)) {
        check_map_against_model(ops, &|| Box::new(Nbbst::new_plain()));
    }

    #[test]
    fn versioned_list_matches_btreemap(ops in proptest::collection::vec(map_op_strategy(), 1..200)) {
        check_map_against_model(ops, &|| Box::new(HarrisList::new_versioned_default()));
    }

    #[test]
    fn versioned_queue_matches_vecdeque(ops in proptest::collection::vec(0..3u8, 1..300)) {
        let queue = MsQueue::new_versioned_default();
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                0 => {
                    queue.enqueue(next);
                    model.push_back(next);
                    next += 1;
                }
                1 => {
                    prop_assert_eq!(queue.dequeue(), model.pop_front());
                }
                _ => {
                    let scanned = queue.scan();
                    let expected: Vec<u64> = model.iter().copied().collect();
                    prop_assert_eq!(scanned, expected);
                    prop_assert_eq!(queue.ith(0), model.front().copied());
                    prop_assert_eq!(
                        queue.peek_end_points(),
                        (model.front().copied(), model.back().copied())
                    );
                }
            }
        }
    }

    #[test]
    fn versioned_cas_snapshots_match_recorded_history(
        writes in proptest::collection::vec(1..1000u64, 1..100),
        snapshot_points in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        // Apply a sequence of writes; at chosen points take a snapshot and record the model
        // value. Afterwards every handle must still read its recorded value.
        let camera = Camera::new();
        let cell = VersionedCas::new(0u64, &camera);
        let guard = pin();
        let mut current = 0u64;
        let mut recorded: Vec<(vcas_repro::core::SnapshotHandle, u64)> = Vec::new();
        for (i, delta) in writes.iter().enumerate() {
            if snapshot_points.get(i).copied().unwrap_or(false) {
                recorded.push((camera.take_snapshot(), current));
            }
            let next = current.wrapping_add(*delta);
            prop_assert!(cell.compare_and_swap(current, next, &guard));
            current = next;
        }
        let final_handle = camera.take_snapshot();
        for (handle, expected) in &recorded {
            prop_assert_eq!(cell.read_snapshot(*handle, &guard), *expected);
        }
        prop_assert_eq!(cell.read_snapshot(final_handle, &guard), current);
        prop_assert_eq!(cell.read(&guard), current);
    }
}
