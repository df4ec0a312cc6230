//! End-to-end smoke test of the cross-crate public API, mirroring the `vcas-core`
//! crate-level doc example so the doctest is not the only API-level coverage: one
//! camera, two versioned CAS objects, and a snapshot handle that must keep seeing
//! the state between the two updates.

use vcas_repro::core::{Camera, VersionedCas};
use vcas_repro::ebr::pin;
use vcas_repro::structures::AtomicRangeMap;
use vcas_repro::structures::Nbbst;

#[test]
fn camera_and_two_cells_snapshot_between_updates() {
    let camera = Camera::new();
    let x = VersionedCas::new(0u64, &camera);
    let y = VersionedCas::new(0u64, &camera);

    let guard = pin();
    // A writer moves one unit from x to y with two separate CASes; the snapshot
    // is taken between them.
    assert!(x.compare_and_swap(0, 5, &guard));
    let ts = camera.take_snapshot();
    assert!(y.compare_and_swap(0, 7, &guard));

    // The handle sees the intermediate state no matter how much later it is read.
    assert_eq!(x.read_snapshot(ts, &guard), 5);
    assert_eq!(y.read_snapshot(ts, &guard), 0);
    assert_eq!(x.read(&guard), 5);
    assert_eq!(y.read(&guard), 7);

    // Later writes never leak into the old handle.
    assert!(x.compare_and_swap(5, 9, &guard));
    assert_eq!(x.read_snapshot(ts, &guard), 5);
    let ts2 = camera.take_snapshot();
    assert_eq!(x.read_snapshot(ts2, &guard), 9);
}

#[test]
fn snapshot_handles_survive_concurrent_writers() {
    let camera = std::sync::Arc::new(Camera::new());
    let cell = std::sync::Arc::new(VersionedCas::new(0u64, &camera));

    // Record (handle, value-at-snapshot) pairs while a writer advances the cell.
    let writer = {
        let cell = cell.clone();
        std::thread::spawn(move || {
            let guard = pin();
            for i in 0..1_000u64 {
                assert!(cell.compare_and_swap(i, i + 1, &guard));
            }
        })
    };
    let guard = pin();
    let mut observed = Vec::new();
    for _ in 0..64 {
        let handle = camera.take_snapshot();
        observed.push((handle, cell.read_snapshot(handle, &guard)));
    }
    writer.join().unwrap();

    // Every handle must still read the exact value it recorded, and the values
    // must be monotone in handle order.
    let mut last = 0;
    for (handle, value) in observed {
        assert_eq!(cell.read_snapshot(handle, &guard), value);
        assert!(value >= last, "snapshot values regressed");
        last = value;
    }
    assert_eq!(cell.read(&guard), 1_000);
}

#[test]
fn structures_layer_composes_with_core_snapshots() {
    // The structures crate rides on the same camera/vCAS machinery: a range
    // query must be an atomic snapshot even while keys keep changing.
    let tree = Nbbst::new_versioned_default();
    for k in 0..100u64 {
        assert!(tree.insert(k, k * 10));
    }
    let before: Vec<(u64, u64)> = tree.range(10, 19);
    assert_eq!(before.len(), 10);
    assert!(before.iter().all(|&(k, v)| v == k * 10));

    assert!(tree.remove(15));
    let after = tree.range(10, 19);
    assert_eq!(after.len(), 9);
    assert!(after.iter().all(|&(k, _)| k != 15));
}
