//! A long-running service with automatic version-list reclamation.
//!
//! A metrics store keeps counters in a `VcasHashMap` and an index in an `Nbbst`, both
//! versioned under one camera. Writers update them continuously — and every successful CAS
//! appends a version node, so without reclamation the process leaks memory linearly
//! (exactly the deployment bug the reclaim subsystem fixes). The service therefore
//! registers both structures with the camera and runs a background
//! [`Collector`](vcas_repro::core::Collector): version lists are truncated below the
//! oldest pinned snapshot while updates and snapshot reads proceed untouched.
//!
//! The example demonstrates, with asserts:
//!
//! 1. a long-pinned snapshot keeps reading its exact state while the collector truncates
//!    around it;
//! 2. once the pin drops, the version census collapses back to ~one version per cell;
//! 3. the camera's counters (`versions_retired`, `approx_live_versions`) expose the
//!    collector's progress, the way a service would export them to monitoring;
//! 4. *data nodes* unlinked by the churn are retired once truncation cuts their last
//!    version reference (`nodes_retired`), the live-node estimate tracks the current
//!    structures, and dropping them conserves every node counter exactly — the service
//!    leaks neither versions nor nodes.
//!
//! Run with `cargo run --example reclamation_service`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vcas_repro::core::reclaim::Collectible;
use vcas_repro::core::{Camera, ReclaimPolicy};
use vcas_repro::structures::MapSnapshotView;
use vcas_repro::structures::{Nbbst, VcasHashMap};

const COUNTERS: u64 = 300;
const WRITERS: u64 = 2;

fn main() {
    let camera = Camera::new();
    let counters = Arc::new(VcasHashMap::new_versioned(&camera, 64));
    let index = Arc::new(Nbbst::new_versioned(&camera));
    for id in 1..=COUNTERS {
        counters.insert(id, 0);
        index.insert(id, id);
    }
    // Deepen the prefill history across one camera advance. With version elision on, a
    // single-timestamp prefill collapses to one version per cell at publication time,
    // which would leave the collector *nothing* below the report's pin. Reinstalling
    // every key at a new timestamp (insert is insert-if-absent, so remove first) strands
    // a genuinely dead below-pin version per cell — the history a long-running service
    // accretes between snapshots.
    camera.take_snapshot();
    for id in 1..=COUNTERS {
        counters.remove(id);
        counters.insert(id, 0);
        index.remove(id);
        index.insert(id, id);
    }

    // Register both structures and start the background collector: 2ms sweeps, a bounded
    // slice of each structure per sweep.
    camera.register_collectible(&counters);
    camera.register_collectible(&index);
    let collector = ReclaimPolicy::Background { interval_ms: 2, budget: 512 }
        .install(&camera)
        .expect("background policy returns the collector handle");
    println!("collector running over {} registered structures", camera.registered_collectibles());

    // A monthly-report job pins a snapshot it will read for a long time.
    let report = counters.view();
    let report_total: usize = report.len();
    let probe: Vec<u64> = (1..=COUNTERS).step_by(7).collect();
    let frozen = report.multi_get(&probe);

    // Writers bump counters (remove + insert models an update; every one appends
    // versions) and churn the index.
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (counters, index) = (counters.clone(), index.clone());
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut bumps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for id in ((w + 1)..=COUNTERS).step_by(WRITERS as usize) {
                        counters.remove(id);
                        counters.insert(id, bumps);
                        index.remove(id);
                        index.insert(id, id + bumps);
                    }
                    bumps += 1;
                }
                bumps
            })
        })
        .collect();

    // The report keeps reading its frozen state while the collector works around it.
    for round in 0..30 {
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(report.len(), report_total, "round {round}: pinned report changed");
        assert_eq!(report.multi_get(&probe), frozen, "round {round}: pinned values changed");
    }
    stop.store(true, Ordering::Relaxed);
    let rounds: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();

    let retired_while_pinned = camera.versions_retired();
    println!(
        "writers did {rounds} bump rounds; collector retired {} versions below the pin \
         (~{} live above it)",
        retired_while_pinned,
        camera.approx_live_versions()
    );
    // The collector must have made progress on its own while the report was pinned (it
    // can only touch history below the pin — the prefill-era versions).
    assert!(retired_while_pinned > 0, "the background collector never retired anything");
    assert_eq!(report.multi_get(&probe), frozen, "still frozen after writers stop");

    // Report done: drop the pin, let the collector finish, then verify the census.
    drop(report);
    collector.stop();
    let guard = vcas_repro::ebr::pin();
    assert!(
        camera.collect_to_quiescence(1 << 20, 64, &guard).completed_cycle,
        "collection never reached quiescence"
    );
    let census_counters = Collectible::version_stats(counters.as_ref(), &guard);
    let census_index = Collectible::version_stats(index.as_ref(), &guard);
    drop(guard);

    assert!(
        census_counters.max_versions_per_cell <= 2 && census_index.max_versions_per_cell <= 2,
        "version lists must be bounded once nothing is pinned: \
         counters={census_counters:?} index={census_index:?}"
    );
    println!(
        "after unpin: {} total versions retired, counters max/cell={}, index max/cell={}",
        camera.versions_retired(),
        census_counters.max_versions_per_cell,
        census_index.max_versions_per_cell
    );

    // Node census: every remove+insert bump stranded an unlinked node behind version
    // pointers; truncation retired them as their last references went (the data-node-leak
    // fix). Drain the EBR cascades so the estimates are exact, then check conservation.
    vcas_repro::ebr::drain();
    println!(
        "node census: created={} retired={} dropped={} live={}",
        camera.nodes_created(),
        camera.nodes_retired(),
        camera.nodes_dropped(),
        camera.approx_live_nodes()
    );
    assert!(camera.nodes_retired() > 0, "churned-away nodes were never retired");
    drop(counters);
    drop(index);
    vcas_repro::ebr::drain();
    assert_eq!(
        camera.nodes_created(),
        camera.nodes_retired() + camera.nodes_dropped(),
        "node conservation violated"
    );
    assert_eq!(camera.approx_live_nodes(), 0, "data nodes leaked past structure drop");
    assert_eq!(camera.approx_live_versions(), 0, "version nodes leaked past structure drop");
    println!("after drop: every allocated node and version accounted for — no leaks");
}
