//! Retention × reclamation tests for the time-travel MVCC layer.
//!
//! The contract under test: a named [`Anchor`] at timestamp `T` keeps `view_at(T)`
//! answering identically forever while writers run and reclamation is active, under
//! *every* reclamation policy; dropping the last anchor releases that history to the
//! collector (with exact node conservation); and a [`RetentionPolicy::KeepNewerThan`]
//! floor bounds live versions under a long-running writer even with no pins at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use vcas_repro::core::{Camera, ReclaimPolicy, RetentionError, RetentionPolicy};
use vcas_repro::structures::view::{
    GroupQueryExt, GroupTimeTravelExt, SnapshotSource, StructureGroup,
};
use vcas_repro::structures::{Nbbst, VcasHashMap};

/// Drains the default EBR domain, retrying (bounded) around transient pins from other
/// tests in this binary. Returns the final pending count (0 = settled).
fn drain_ebr_settled() -> usize {
    for _ in 0..2_000 {
        if vcas_repro::ebr::drain() == 0 {
            return 0;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    vcas_repro::ebr::drain()
}

/// Sorted full state of a source at one timestamp, via the fallible as-of API.
fn state_at(source: &dyn SnapshotSource, ts: u64) -> Vec<(u64, u64)> {
    let view = source.view_at(ts).expect("timestamp must be retained");
    let mut pairs: Vec<_> = view.iter().collect();
    pairs.sort_unstable_by_key(|(k, _)| *k);
    pairs
}

/// Anchors hold their timestamp's versions alive — and its answers frozen — under the
/// amortized and background reclamation drivers, with writers churning the whole time.
#[test]
fn anchors_survive_every_reclamation_policy() {
    for policy in [
        ReclaimPolicy::Amortized { every_n_updates: 64, budget: 128 },
        ReclaimPolicy::Background { interval_ms: 2, budget: 512 },
    ] {
        let camera = Camera::new();
        let tree = Arc::new(Nbbst::new_versioned(&camera));
        camera.register_collectible(&tree);
        let collector = policy.install(&camera);

        for k in 1..=128u64 {
            tree.insert(k, k);
        }
        let anchor = camera.anchor("frozen-epoch");
        let frozen = state_at(tree.as_ref(), anchor.timestamp());
        assert_eq!(frozen.len(), 128, "{policy:?}");

        // Churn from writer threads while the anchor is held.
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let tree = tree.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut x = 0x9E37u64.wrapping_add(t);
                    while !stop.load(Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let key = x % 192 + 1;
                        if x & 1 == 0 {
                            tree.insert(key, x);
                        } else {
                            tree.remove(key);
                        }
                    }
                })
            })
            .collect();

        for _ in 0..8 {
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(
                state_at(tree.as_ref(), anchor.timestamp()),
                frozen,
                "{policy:?}: anchored state drifted under churn + reclamation"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }

        // The anchor is visible in the registry by name while held...
        assert!(camera.anchors().iter().any(|(n, _)| n == "frozen-epoch"), "{policy:?}");
        let anchored_ts = anchor.timestamp();
        let versions_while_anchored = camera.approx_live_versions();

        // ...and dropping it (plus the collector's thread) releases the history.
        drop(anchor);
        drop(collector);
        assert!(camera.anchors().is_empty(), "{policy:?}");
        let guard = vcas_repro::ebr::pin();
        let sweep = camera.collect_to_quiescence(1 << 20, 64, &guard);
        assert!(sweep.completed_cycle, "{policy:?}: no quiescence");
        drop(guard);
        assert_eq!(drain_ebr_settled(), 0, "{policy:?}: EBR failed to drain");
        assert!(
            matches!(tree.view_at(anchored_ts), Err(RetentionError::Truncated { .. })),
            "{policy:?}: released timestamp still addressable"
        );
        assert!(
            camera.approx_live_versions() <= versions_while_anchored,
            "{policy:?}: release grew history"
        );

        // Exact conservation once the structure is gone.
        drop(tree);
        assert_eq!(drain_ebr_settled(), 0, "{policy:?}");
        assert_eq!(camera.nodes_created(), camera.nodes_retired() + camera.nodes_dropped());
        assert_eq!(camera.approx_live_nodes(), 0, "{policy:?}: data nodes leaked");
        assert_eq!(camera.approx_live_versions(), 0, "{policy:?}: version nodes leaked");
    }
}

/// A clone of an anchor keeps the history alive on its own: the original dropping
/// changes nothing until the *last* holder lets go.
#[test]
fn cloned_anchors_share_custody_of_the_timestamp() {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    camera.register_collectible(&tree);

    for k in 1..=32u64 {
        tree.insert(k, k);
    }
    let original = camera.anchor("shared");
    let ts = original.timestamp();
    let clone = original.clone();
    assert_eq!(camera.anchors().len(), 2, "both holders registered under one name");

    for k in 33..=64u64 {
        tree.insert(k, k);
    }
    drop(original);
    let guard = vcas_repro::ebr::pin();
    camera.collect_to_quiescence(1 << 20, 64, &guard);
    drop(guard);
    // The clone still pins: the timestamp stays addressable and frozen.
    assert_eq!(state_at(tree.as_ref(), clone.timestamp()).len(), 32);
    assert_eq!(camera.anchors(), vec![("shared".to_string(), ts)]);

    drop(clone);
    let guard = vcas_repro::ebr::pin();
    let sweep = camera.collect_to_quiescence(1 << 20, 64, &guard);
    assert!(sweep.completed_cycle);
    drop(guard);
    assert!(matches!(tree.view_at(ts), Err(RetentionError::Truncated { .. })));
}

/// `KeepNewerThan` bounds live versions under a long-running writer with no pins at all:
/// the policy floor keeps advancing, so truncation keeps up with the writer instead of
/// retaining the full history.
#[test]
fn keep_newer_than_bounds_history_under_a_long_running_writer() {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    camera.register_collectible(&tree);
    // KeepAll would retain every version ever written; the moving KeepNewerThan floor
    // must keep the version count proportional to the *tree*, not to the update count.
    const KEYS: u64 = 16;
    const ROUNDS: usize = 200;
    let mut peak = 0u64;
    let guard = vcas_repro::ebr::pin();
    for round in 0..ROUNDS {
        for k in 1..=KEYS {
            tree.insert(k, round as u64);
        }
        // The retention floor chases the present: keep only history newer than the
        // current timestamp minus a fixed window.
        let now = camera.take_snapshot().raw();
        camera.set_retention(RetentionPolicy::KeepNewerThan(now.saturating_sub(4)));
        camera.collect_all(1 << 20, &guard);
        peak = peak.max(camera.approx_live_versions());
    }
    drop(guard);
    // Each cell retains its live version, the window's worth of recent versions, and one
    // version at the cut. 200 rounds x 16 keys wrote ~3200 versions; a leak of even a
    // fraction of them dwarfs this bound.
    let bound = 4 * (2 * KEYS + 3) + 64;
    assert!(peak <= bound, "live versions unbounded under KeepNewerThan: peak={peak} > {bound}");

    // And the floor actually cut: timestamps below it are refused with the watermark.
    match tree.view_at(1).map(|_| ()) {
        Err(RetentionError::Truncated { requested, oldest_retained }) => {
            assert_eq!(requested, 1);
            assert!(oldest_retained > 1);
        }
        other => panic!("expected Truncated for pre-floor timestamp, got {other:?}"),
    }
}

/// Composing policies with [`RetentionPolicy::and`] keeps the *lower* (more retentive)
/// floor, and anchors still override a policy floor that would otherwise truncate them.
#[test]
fn policy_composition_takes_the_most_retentive_floor() {
    assert_eq!(RetentionPolicy::KeepAll.floor(), 0);
    assert_eq!(
        RetentionPolicy::KeepNewerThan(10).and(RetentionPolicy::KeepNewerThan(7)).floor(),
        7
    );
    assert_eq!(RetentionPolicy::KeepAll.and(RetentionPolicy::KeepNewerThan(7)).floor(), 0);

    // An anchor below an aggressive KeepNewerThan floor still pins its timestamp: the
    // registry floor is the min of the policy floor and the oldest pin.
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    camera.register_collectible(&tree);
    for k in 1..=16u64 {
        tree.insert(k, k);
    }
    let anchor = camera.anchor("below-the-floor");
    for k in 1..=16u64 {
        tree.insert(k, k + 100);
    }
    let now = camera.take_snapshot().raw();
    camera.set_retention(RetentionPolicy::KeepNewerThan(now));
    let guard = vcas_repro::ebr::pin();
    camera.collect_to_quiescence(1 << 20, 64, &guard);
    drop(guard);
    let frozen = state_at(tree.as_ref(), anchor.timestamp());
    assert_eq!(frozen.iter().find(|(k, _)| *k == 1), Some(&(1, 1)), "anchored value truncated");
}

/// Group-wide as-of: `group_view_at(ts)` opens one view per member at one retained
/// timestamp, and a dropped anchor makes the whole group timestamp unaddressable.
#[test]
fn group_view_at_reads_every_member_at_one_past_instant() {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    let map = Arc::new(VcasHashMap::new_versioned(&camera, 16));
    let mut group: StructureGroup = StructureGroup::new(camera.clone());
    let tree_idx = group.register(tree.clone() as Arc<dyn SnapshotSource>).unwrap();
    let map_idx = group.register(map.clone() as Arc<dyn SnapshotSource>).unwrap();

    tree.insert(1, 10);
    map.insert(2, 20);
    let anchor = camera.anchor("group-epoch");
    tree.insert(3, 30);
    map.insert(4, 40);

    let snap = group.group_view_at(anchor.timestamp()).expect("anchored ts is retained");
    let tree_view = snap.view_of(tree_idx);
    let map_view = snap.view_of(map_idx);
    assert_eq!(tree_view.get(1), Some(10));
    assert_eq!(tree_view.get(3), None, "post-anchor insert visible through as-of view");
    assert_eq!(map_view.get(2), Some(20));
    assert_eq!(map_view.get(4), None, "post-anchor insert visible through as-of view");
    drop(tree_view);
    drop(map_view);
    drop(snap);

    // In the future -> InFuture; after release + sweep -> Truncated.
    let far = camera.take_snapshot().raw() + 1_000;
    assert!(matches!(group.group_view_at(far), Err(RetentionError::InFuture { .. })));
    let ts = anchor.timestamp();
    drop(anchor);
    camera.register_collectible(&tree);
    let guard = vcas_repro::ebr::pin();
    camera.collect_to_quiescence(1 << 20, 64, &guard);
    drop(guard);
    assert!(matches!(group.group_view_at(ts), Err(RetentionError::Truncated { .. })));
}

/// The silent-lie regression: baselines keep no history, so their `view_at` must refuse
/// every timestamp instead of returning current state dressed up as the past.
#[test]
fn baselines_refuse_view_at_instead_of_lying() {
    use vcas_repro::structures::{DcBst, LockBst, LockHashMap};
    let sources: [Box<dyn SnapshotSource>; 3] =
        [Box::new(DcBst::new()), Box::new(LockBst::new()), Box::new(LockHashMap::new())];
    for source in &sources {
        assert!(matches!(source.view_at(0), Err(RetentionError::Unsupported)));
        assert!(matches!(source.diff(0, 1), Err(RetentionError::Unsupported)));
    }
    // Plain (unversioned) vCAS structures are equally honest.
    let plain = Nbbst::new_plain();
    assert!(matches!(SnapshotSource::view_at(&plain, 0), Err(RetentionError::Unsupported)));
}
