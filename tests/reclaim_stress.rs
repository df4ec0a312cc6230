//! Reclamation-under-concurrency stress tests: writer threads churn a structure whose
//! camera has automatic version-list reclamation installed, while one long-pinned reader
//! holds a snapshot open. The pinned view's answers must never change (truncation can
//! never eat a version the pin protects), and once the pin drops, collection must bound
//! every cell's version list — the two halves of the acceptance criterion for the
//! reclamation subsystem.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vcas_repro::core::reclaim::Collectible;
use vcas_repro::core::{Camera, ReclaimPolicy};
use vcas_repro::structures::MapSnapshotView;
use vcas_repro::structures::{Nbbst, VcasHashMap};
use vcas_repro::workload::{run_reclaim, Mix, WorkloadSpec};

const KEYS: u64 = 96;

/// The keys the concurrent writers churn: disjoint from the prefilled `1..=KEYS`, whose
/// reinstall across a camera advance strands dead history below the reader's pin. A
/// writer's own cells get cut by write-time pruning as it writes them, so residue in the
/// cells writers touch may be gone before a driver looks; residue in the prefill's cells
/// is left for the reclamation driver alone (only the few cells on the boundary between
/// the two key ranges are shared).
const WRITER_KEYS: std::ops::RangeInclusive<u64> = KEYS + 1..=3 * KEYS;

/// 2 writers + 1 pinned reader on a hash map under the amortized policy, installed once
/// the reader is pinned: frozen reads throughout, bounded version lists after the pin
/// drops.
#[test]
fn hashmap_versions_bounded_after_pin_drops_under_writers() {
    let camera = Camera::new();
    let map = Arc::new(VcasHashMap::new_versioned(&camera, 16));
    camera.register_collectible(&map);
    for k in 1..=KEYS {
        assert!(map.insert(k, k * 3));
    }
    // Reinstall every key across a camera advance: elision collapses the same-timestamp
    // prefill to one version per cell, so without this there would be no dead below-pin
    // history for the amortized hooks to retire mid-run. The writers below churn other
    // keys (`WRITER_KEYS`), so most of this history waits for the hooks.
    camera.take_snapshot();
    for k in 1..=KEYS {
        assert!(map.remove(k));
        assert!(map.insert(k, k * 3));
    }

    // The long-pinned reader freezes the full table state.
    let view = map.view();
    let pinned_ts = view.timestamp().expect("versioned map views are pinned");
    // The hooks start with the pin held: installed earlier, a driver would raise the
    // watermark during the reinstall, whose own writes would then prune the history.
    ReclaimPolicy::Amortized { every_n_updates: 64, budget: 128 }.install(&camera);
    let probe: Vec<u64> = (1..=KEYS).collect();
    let frozen = view.multi_get(&probe);
    assert!(frozen.iter().all(|v| v.is_some()));

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let map = map.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xBEEF + t);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(WRITER_KEYS);
                    if rng.gen_bool(0.5) {
                        map.insert(k, k);
                    } else {
                        map.remove(k);
                    }
                }
            })
        })
        .collect();

    // At least 40 rounds of pinned reads; past them, keep reading (bounded) until the
    // writers' hooks have had their first slices, which need 64 updates each.
    let start = std::time::Instant::now();
    for round in 0.. {
        assert_eq!(view.timestamp(), Some(pinned_ts), "round {round}: timestamp drifted");
        assert_eq!(view.multi_get(&probe), frozen, "round {round}: pinned reads changed");
        let waited = start.elapsed() > std::time::Duration::from_secs(10);
        if round >= 40 && (camera.versions_retired() > 0 || waited) {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    // Reads are still frozen after the writers are gone. The amortized hooks must have
    // collected something already (history below the pin — prefill-era versions): this is
    // what distinguishes working hooks from relying on the final sweep.
    assert_eq!(view.multi_get(&probe), frozen);
    assert!(camera.versions_retired() > 0, "amortized hooks never collected during the run");
    drop(view);
    assert_eq!(camera.pinned_count(), 0);

    // Collect to quiescence and check boundedness: with no pins, one version per cell.
    let guard = vcas_repro::ebr::pin();
    assert!(camera.collect_to_quiescence(1 << 20, 64, &guard).completed_cycle);
    let stats = Collectible::version_stats(map.as_ref(), &guard);
    assert!(
        stats.max_versions_per_cell <= 2,
        "version lists unbounded after the pin dropped: {stats:?}"
    );
}

/// The same invariants on the BST with a *background* collector running for the whole
/// writer window: the collector sweeps concurrently with writers and the pinned reader
/// (while the pin is held it can only retire history below it, i.e. prefill-era
/// versions), and stops cleanly before the final sweep.
#[test]
fn bst_background_collector_preserves_pinned_reads() {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    camera.register_collectible(&tree);
    for k in 1..=KEYS {
        assert!(tree.insert(k, k + 100));
    }
    // As in the hash-map test: strand dead below-pin history that survives elision, in
    // cells the writers below do not write, so the background collector has something to
    // retire while the pin is held.
    camera.take_snapshot();
    for k in 1..=KEYS {
        assert!(tree.remove(k));
        assert!(tree.insert(k, k + 100));
    }

    let view = tree.view();
    let frozen_scan = view.iter().collect::<Vec<_>>();
    assert_eq!(frozen_scan.len(), KEYS as usize);
    // As in the hash-map test, the collector starts with the pin held.
    let collector = ReclaimPolicy::Background { interval_ms: 1, budget: 512 }
        .install(&camera)
        .expect("background policy starts a collector");

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let tree = tree.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xCAFE + t);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(WRITER_KEYS);
                    if rng.gen_bool(0.5) {
                        tree.insert(k, k);
                    } else {
                        tree.remove(k);
                    }
                }
            })
        })
        .collect();

    for round in 0..40 {
        assert_eq!(
            view.iter().collect::<Vec<_>>(),
            frozen_scan,
            "round {round}: pinned scan changed"
        );
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }

    // The collector (still running, pin still held) must retire the below-pin residue on
    // its own; wait bounded for its next sweep rather than racing its interval.
    for _ in 0..500 {
        if camera.versions_retired() > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(camera.versions_retired() > 0, "background collector never retired anything");
    drop(view);
    collector.stop();

    let guard = vcas_repro::ebr::pin();
    assert!(camera.collect_to_quiescence(1 << 20, 64, &guard).completed_cycle);
    let stats = Collectible::version_stats(tree.as_ref(), &guard);
    assert!(stats.max_versions_per_cell <= 2, "unbounded after quiescence: {stats:?}");
}

/// The workload driver's `reclaim` scenario end-to-end, at test scale, for each policy —
/// `run_reclaim` asserts the frozen-view and bounded-versions invariants internally and
/// panics with the reproduction seed on violation.
#[test]
fn reclaim_scenario_holds_for_every_policy() {
    for policy in [
        ReclaimPolicy::Disabled,
        ReclaimPolicy::Amortized { every_n_updates: 32, budget: 128 },
        ReclaimPolicy::Background { interval_ms: 2, budget: 512 },
    ] {
        let mut spec = WorkloadSpec::new(2, 120, Mix::update_heavy());
        spec.duration_ms = 50;
        let r = run_reclaim(&spec, policy);
        assert!(r.updates.operations > 0, "{policy:?}: writers made no progress");
        assert!(r.versions_retired > 0, "{policy:?}: nothing was ever reclaimed");
        assert_eq!(
            r.versions_retired_during_run > 0,
            policy != ReclaimPolicy::Disabled,
            "{policy:?}: mid-run retirement must happen exactly when a driver is installed"
        );
        assert!(r.stats_after_drop.max_versions_per_cell <= 2, "{policy:?}");
    }
}

/// Write-time pruning alone bounds a hash map's version lists: no sweep is installed
/// (`ReclaimPolicy::Disabled`, nothing registered), and each round pins a view, runs 500
/// updates under it and drops it. Every write whose displaced version is at or below the
/// watermark cuts its own cell, so no cell holds more than the pinned-era version plus
/// the current one; once no pin is left, rewriting every key leaves one version per cell.
/// The cuts must keep version slots exactly conserved.
#[test]
fn hashmap_write_time_pruning_needs_no_sweep() {
    use rand::{Rng, SeedableRng};
    let camera = Camera::new();
    ReclaimPolicy::Disabled.install(&camera);
    let map = VcasHashMap::new_versioned(&camera, 16);
    for k in 1..=KEYS {
        assert!(map.insert(k, k));
    }
    let probe: Vec<u64> = (1..=2 * KEYS).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9E3);
    for round in 0..40 {
        let view = map.view();
        let frozen = view.multi_get(&probe);
        for _ in 0..500 {
            let k = rng.gen_range(1..=2 * KEYS);
            if rng.gen_bool(0.5) {
                map.insert(k, k);
            } else {
                map.remove(k);
            }
        }
        assert_eq!(view.multi_get(&probe), frozen, "round {round}: pinned reads changed");
        drop(view);
        let guard = vcas_repro::ebr::pin();
        let stats = Collectible::version_stats(&map, &guard);
        assert!(stats.max_versions_per_cell <= 2, "round {round}: list grew: {stats:?}");
    }
    assert!(camera.versions_pruned() > 0, "no publication pruned its cell");

    // No pin is left. Rewrite every key once: every bucket head and every surviving node's
    // cell takes a write, and each write prunes its cell — a write stamped in the instant
    // of the last round's writes elides its displaced head and cuts what is left below it.
    for k in 1..=2 * KEYS {
        if map.remove(k) {
            assert!(map.insert(k, k));
        } else {
            assert!(map.insert(k, k));
            assert!(map.remove(k));
        }
    }
    {
        let guard = vcas_repro::ebr::pin();
        let stats = Collectible::version_stats(&map, &guard);
        assert_eq!(stats.max_versions_per_cell, 1, "writes after the last unpin: {stats:?}");
    }

    drop(map);
    let mut pending = vcas_repro::ebr::drain();
    for _ in 0..2_000 {
        if pending == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        pending = vcas_repro::ebr::drain();
    }
    assert_eq!(pending, 0, "EBR could not drain (stale pin?)");
    assert_eq!(
        camera.versions_created(),
        camera.versions_retired() + camera.versions_dropped(),
        "version conservation violated: pruned publications are slot transfers"
    );
}
