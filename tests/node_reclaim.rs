//! Node-conservation tests for the data-node reclamation protocol (the fix for the
//! "truncation frees version nodes but leaks the data nodes they pointed at" open item).
//!
//! Every structure runs the same recipe: 2 concurrent writers churn a small key space
//! (with snapshots taken along the way so version lists actually grow), truncation runs —
//! both mid-flight and to quiescence — and the structure is dropped. After the EBR domain
//! drains, the camera's node counters must conserve exactly:
//!
//! ```text
//! nodes_created == nodes_retired + nodes_dropped     (no data-node leak)
//! approx_live_nodes == 0                             (ditto, as the monitoring signal)
//! versions_created == versions_retired + versions_dropped
//! ```
//!
//! A second group of tests pins the dead-same-timestamp-intermediate collection: under a
//! long-lived pin, a cell's version-list length is bounded by the number of *distinct*
//! retained timestamps (+1 for the version at the truncation cut), not by the number of
//! successful CASes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use vcas_repro::core::reclaim::Collectible;
use vcas_repro::core::{Camera, VersionedCas};
use vcas_repro::structures::traits::ConcurrentMap;
use vcas_repro::structures::MapSnapshotView;
use vcas_repro::structures::{HarrisList, Nbbst, VcasHashMap, VcasSkipList};

const WRITERS: u64 = 2;
const OPS_PER_WRITER: u64 = 4_000;
const KEY_SPACE: u64 = 48;

/// Drains the default EBR domain, retrying (bounded) around transient pins from other
/// tests in this binary — a single [`vcas_repro::ebr::drain`] gives up when a concurrent
/// test briefly pins the shared domain. Returns the final pending count (0 = settled).
fn drain_ebr_settled() -> usize {
    for _ in 0..2_000 {
        if vcas_repro::ebr::drain() == 0 {
            return 0;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    vcas_repro::ebr::drain()
}

/// Churns `structure` with 2 writers (inserts/removes over a small key space, snapshots
/// interleaved), truncating a bounded slice every few hundred operations, then collects to
/// quiescence, drops the structure, drains EBR, and asserts exact node and version
/// conservation on `camera`.
fn assert_node_conservation<S>(camera: Arc<Camera>, structure: Arc<S>, label: &str)
where
    S: ConcurrentMap + Collectible + Send + Sync + 'static,
{
    camera.register_collectible(&structure);
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let structure = structure.clone();
        let camera = camera.clone();
        let stop = stop.clone();
        writers.push(std::thread::spawn(move || {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE + w);
            for i in 0..OPS_PER_WRITER {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let k = rng.gen_range(1..=KEY_SPACE);
                if rng.gen_bool(0.5) {
                    structure.insert(k, k);
                } else {
                    structure.remove(k);
                }
                if i % 7 == 0 {
                    camera.take_snapshot();
                }
                if i % 300 == 0 {
                    // Mid-flight truncation races with the other writer's updates: this is
                    // where a lost reference count would show up as a miscount below.
                    let guard = vcas_repro::ebr::pin();
                    camera.collect_slice(64, &guard);
                }
            }
        }));
    }
    for writer in writers {
        writer.join().expect("writer panicked");
    }

    assert!(camera.nodes_created() > 0, "{label}: writers allocated nothing");
    {
        let guard = vcas_repro::ebr::pin();
        let sweep = camera.collect_to_quiescence(1 << 20, 64, &guard);
        assert!(sweep.completed_cycle, "{label}: truncation never reached quiescence");
    }

    drop(structure);
    let pending = drain_ebr_settled();
    assert_eq!(pending, 0, "{label}: EBR could not drain (stale pin?)");

    assert_eq!(
        camera.nodes_created(),
        camera.nodes_retired() + camera.nodes_dropped(),
        "{label}: node conservation violated (created {} != retired {} + dropped {})",
        camera.nodes_created(),
        camera.nodes_retired(),
        camera.nodes_dropped(),
    );
    assert_eq!(camera.approx_live_nodes(), 0, "{label}: live nodes remain after drop");
    assert_eq!(
        camera.versions_created(),
        camera.versions_retired() + camera.versions_dropped(),
        "{label}: version conservation violated",
    );
    assert_eq!(camera.approx_live_versions(), 0, "{label}: live versions remain after drop");
}

#[test]
fn nbbst_conserves_nodes_under_churn_truncation_and_drop() {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    assert_node_conservation(camera, tree, "Nbbst");
}

#[test]
fn harris_list_conserves_nodes_under_churn_truncation_and_drop() {
    let camera = Camera::new();
    let list = Arc::new(HarrisList::new_versioned(&camera));
    assert_node_conservation(camera, list, "HarrisList");
}

#[test]
fn vcas_hashmap_conserves_nodes_under_churn_truncation_and_drop() {
    let camera = Camera::new();
    let map = Arc::new(VcasHashMap::new_versioned(&camera, 16));
    assert_node_conservation(camera, map, "VcasHashMap");
}

#[test]
fn vcas_skiplist_conserves_nodes_under_churn_truncation_and_drop() {
    let camera = Camera::new();
    let list = Arc::new(VcasSkipList::new_versioned(&camera));
    assert_node_conservation(camera, list, "VcasSkipList");
}

/// The structural half of the tentpole's second leak: with a pin holding `min_active`
/// down, truncation must still discard versions shadowed at the same timestamp, so an
/// unlinked node's last reference disappears as soon as it becomes unreadable — and the
/// node itself is retired mid-run, not at structure drop.
#[test]
fn truncation_retires_unlinked_nodes_while_the_structure_lives() {
    let camera = Camera::new();
    let list = Arc::new(HarrisList::new_versioned(&camera));
    camera.register_collectible(&list);
    for k in 1..=32u64 {
        camera.take_snapshot();
        list.insert(k, k);
    }
    // Churn: every remove + reinsert strands the removed node behind version pointers.
    for k in 1..=32u64 {
        camera.take_snapshot();
        list.remove(k);
        camera.take_snapshot();
        list.insert(k, k * 2);
    }
    let retired_before = camera.nodes_retired();
    let guard = vcas_repro::ebr::pin();
    let sweep = camera.collect_to_quiescence(1 << 20, 64, &guard);
    assert!(sweep.completed_cycle);
    drop(guard);
    drain_ebr_settled();
    assert!(
        camera.nodes_retired() > retired_before,
        "truncating the last version pointer to an unlinked node must retire the node \
         (retired stayed at {retired_before})"
    );
    // The live estimate has collapsed to the current list: 32 keys (the list has no
    // sentinel node).
    assert_eq!(camera.approx_live_nodes(), 32);
    assert_eq!(list.view().len(), 32);
    assert_eq!(list.get(5), Some(10));
    drop(list);
    drain_ebr_settled();
    assert_eq!(camera.approx_live_nodes(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Dead-same-timestamp-intermediate bound: after `collect_before` under a long-lived
    /// pin, a cell retains at most one version per distinct readable timestamp plus the
    /// version at the truncation cut — regardless of how many CASes ran. Concretely: no
    /// two retained versions above `min_active` share a timestamp, and at most one
    /// retained version sits at or below `min_active`.
    #[test]
    fn per_cell_list_length_is_bounded_by_distinct_readable_timestamps(
        ops in proptest::collection::vec(any::<bool>(), 1..200),
        pin_at in 0usize..50,
    ) {
        let camera = Camera::new();
        let cell = VersionedCas::new(0u64, &camera);
        let guard = vcas_repro::ebr::pin();
        let mut pin = None;
        let mut value = 0u64;
        for (i, &snapshot) in ops.iter().enumerate() {
            if i == pin_at {
                pin = Some(camera.pin_snapshot());
            }
            if snapshot {
                camera.take_snapshot();
            } else {
                prop_assert!(cell.compare_and_swap(value, value + 1, &guard));
                value += 1;
            }
        }
        let pinned = pin.unwrap_or_else(|| camera.pin_snapshot());
        let frozen = cell.read_snapshot(pinned.handle(), &guard);

        let min_active = camera.min_active();
        cell.collect_before(min_active, &guard);

        let versions = cell.versions(&guard);
        let above: Vec<u64> =
            versions.iter().map(|&(ts, _)| ts).filter(|&ts| ts > min_active).collect();
        let mut distinct = above.clone();
        distinct.dedup();
        prop_assert!(
            above == distinct,
            "same-timestamp intermediates above min_active survived: {:?}",
            versions
        );
        let at_or_below = versions.iter().filter(|&&(ts, _)| ts <= min_active).count();
        prop_assert!(at_or_below <= 1, "more than one version at/below the cut: {:?}", versions);
        prop_assert!(versions.len() <= distinct.len() + 1);

        // Frozenness: the pinned handle still reads its exact value.
        prop_assert_eq!(cell.read_snapshot(pinned.handle(), &guard), frozen);
        prop_assert_eq!(cell.read(&guard), value);
    }
}
