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
//! A second group checks the amortized slices' gate, the camera's count of retained
//! history: once a pin is released and the sweeps have cut every cell to one version, the
//! count reads 0 and no further slice touches the structure.
//!
//! A third group pins the dead-same-timestamp-intermediate collection: under a
//! long-lived pin, a cell's version-list length is bounded by the number of *distinct*
//! retained timestamps (+1 for the version at the truncation cut), not by the number of
//! successful CASes.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use vcas_repro::core::reclaim::{CellOp, CollectStats, Collectible, Visit};
use vcas_repro::core::{Camera, CameraAttached, ReclaimPolicy, VersionedCas};
use vcas_repro::ebr::Guard;
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
    assert_node_conservation_with(camera, structure, label, |_| {});
}

/// [`assert_node_conservation`], running `at_quiescence` on the structure once the
/// quiescence sweep has completed and EBR has drained, before the drop.
fn assert_node_conservation_with<S>(
    camera: Arc<Camera>,
    structure: Arc<S>,
    label: &str,
    at_quiescence: impl FnOnce(&S),
) where
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
    assert_eq!(drain_ebr_settled(), 0, "{label}: EBR could not drain at quiescence");
    at_quiescence(&structure);

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
    let live = camera.clone();
    // No sentinel: at quiescence the live nodes are exactly the keys.
    assert_node_conservation_with(camera, list, "VcasSkipList", |list| {
        assert_eq!(live.approx_live_nodes(), list.view().len() as u64);
    });
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

/// Registers in place of the structure it wraps and counts the `collect_bounded` calls
/// the reclamation registry makes into it.
struct CountingSweeps<S> {
    inner: Arc<S>,
    passes: AtomicUsize,
}

impl<S: Collectible> Collectible for CountingSweeps<S> {
    fn visit_cells(&self, op: CellOp, budget: usize, resume: bool, guard: &Guard) -> Visit {
        self.inner.visit_cells(op, budget, resume, guard)
    }

    fn collect_bounded(&self, min_active: u64, budget: usize, guard: &Guard) -> CollectStats {
        self.passes.fetch_add(1, Ordering::SeqCst);
        self.inner.collect_bounded(min_active, budget, guard)
    }
}

/// Churns `structure` under a pin, deleting keys while it is held so that cells with
/// history are destroyed with their nodes, releases the pin, writes once more (those
/// writes prune their cells), and ticks under `Amortized` until every reachable cell
/// holds one version. Once EBR has run the unlinked nodes' destructors, the camera's
/// history count must read 0: 10 000 more ticks make no `collect_bounded` call. A count
/// that missed a retirement or a dropped version would keep the gate open; one that
/// missed a push would have closed it on stranded history, and the ticks would never
/// reach one version per cell.
fn assert_history_gate_is_exact<S>(camera: Arc<Camera>, structure: Arc<S>, label: &str)
where
    S: ConcurrentMap + Collectible + Send + Sync + 'static,
{
    let counted =
        Arc::new(CountingSweeps { inner: structure.clone(), passes: AtomicUsize::new(0) });
    camera.register_collectible(&counted);
    ReclaimPolicy::Amortized { every_n_updates: 1, budget: 64 }.install(&camera);

    let pinned = camera.pin_snapshot();
    for round in 0..6u64 {
        for k in 1..=KEY_SPACE {
            camera.take_snapshot();
            if (k + round) % 3 == 0 {
                structure.remove(k);
            } else {
                structure.insert(k, k + round);
            }
        }
    }
    let busy = {
        let guard = vcas_repro::ebr::pin();
        structure.version_stats(&guard)
    };
    assert!(busy.versions > busy.cells, "{label}: the churn left no history: {busy:?}");
    drop(pinned);
    // Writes after the release prune the cells they touch at publication time.
    camera.take_snapshot();
    for k in 1..=KEY_SPACE {
        if k % 2 == 0 {
            structure.remove(k);
        } else {
            structure.insert(k, k);
        }
    }

    let mut settled = false;
    for _ in 0..10_000 {
        let guard = vcas_repro::ebr::pin();
        camera.reclaim_tick(&guard);
        let stats = structure.version_stats(&guard);
        if stats.versions == stats.cells {
            settled = true;
            break;
        }
    }
    assert!(settled, "{label}: the ticks never cut every cell to one version");
    assert_eq!(drain_ebr_settled(), 0, "{label}: EBR could not drain (stale pin?)");

    let passes = counted.passes.load(Ordering::SeqCst);
    assert!(passes > 0, "{label}: no slice ever swept the released history");
    for _ in 0..10_000 {
        let guard = vcas_repro::ebr::pin();
        camera.reclaim_tick(&guard);
    }
    assert_eq!(
        counted.passes.load(Ordering::SeqCst) - passes,
        0,
        "{label}: slices kept sweeping a structure with no history left"
    );
}

#[test]
fn nbbst_history_gate_closes_once_released_history_is_swept() {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    assert_history_gate_is_exact(camera, tree, "Nbbst");
}

#[test]
fn vcas_hashmap_history_gate_closes_once_released_history_is_swept() {
    let camera = Camera::new();
    let map = Arc::new(VcasHashMap::new_versioned(&camera, 16));
    assert_history_gate_is_exact(camera, map, "VcasHashMap");
}

#[test]
fn vcas_skiplist_history_gate_closes_once_released_history_is_swept() {
    let camera = Camera::new();
    let list = Arc::new(VcasSkipList::new_versioned(&camera));
    assert_history_gate_is_exact(camera, list, "VcasSkipList");
}

/// Runs budget-1 bounded passes from a fresh cycle until one completes, calling
/// `version_stats` between passes when `census` is set. Returns the passes and the cells
/// they visited.
fn budget_one_cycle<S: Collectible>(structure: &S, floor: u64, census: bool) -> (usize, usize) {
    let guard = vcas_repro::ebr::pin();
    let (mut passes, mut cells) = (0, 0);
    loop {
        let pass = structure.collect_bounded(floor, 1, &guard);
        passes += 1;
        cells += pass.cells_visited;
        assert!(passes < 100_000, "budget-1 passes never completed a cycle");
        if pass.completed_cycle {
            return (passes, cells);
        }
        if census {
            structure.version_stats(&guard);
        }
    }
}

/// Conformance of one `Collectible` cell visitor: after churn under snapshots, budget-1
/// passes complete a cycle that reaches every cell the census counts and cuts each to one
/// version; a census between passes does not move the cursor, so a second cycle takes as
/// many passes; and a plain structure, which holds no history, completes in one pass.
fn assert_visitor_conforms<S: ConcurrentMap + Collectible + CameraAttached>(structure: S) {
    let versioned = structure.attached_camera().is_some();
    let camera = structure.attached_camera().cloned().unwrap_or_else(Camera::new);
    for round in 0..4u64 {
        for k in 1..=KEY_SPACE {
            camera.take_snapshot();
            if (k + round) % 3 == 0 {
                structure.remove(k);
            } else {
                structure.insert(k, k + round);
            }
        }
    }
    let census = structure.version_stats(&vcas_repro::ebr::pin());
    assert!(!versioned || census.max_versions_per_cell > 1, "churn left no history");
    let (passes, cells) = budget_one_cycle(&structure, camera.min_active(), false);
    let after = structure.version_stats(&vcas_repro::ebr::pin());
    assert_eq!(after.max_versions_per_cell, 1, "a completed cycle must cut every cell");
    if versioned {
        assert!(cells >= census.cells, "the cycle visited {cells} of {} cells", census.cells);
    } else {
        assert_eq!(passes, 1, "a plain structure must complete in one pass");
    }
    let (passes_with_census, _) = budget_one_cycle(&structure, camera.min_active(), true);
    assert_eq!(passes_with_census, passes, "a census between passes moved the cursor");
}

#[test]
fn every_collectible_visitor_conforms() {
    assert_visitor_conforms(Nbbst::new_versioned_default());
    assert_visitor_conforms(HarrisList::new_versioned_default());
    assert_visitor_conforms(VcasHashMap::new_versioned(&Camera::new(), 16));
    assert_visitor_conforms(VcasSkipList::new_versioned_default());
    assert_visitor_conforms(Nbbst::new_plain());
    assert_visitor_conforms(HarrisList::new_plain());
    assert_visitor_conforms(VcasHashMap::new_plain(16));
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
