//! Cross-structure audit: atomically reading a hash map *and* a BST at one timestamp.
//!
//! A warehouse tracks pallets in two structures sharing one camera: a `VcasHashMap` for
//! pallets on the *hot* pick floor (point lookups by id) and an `Nbbst` for pallets in
//! *cold* storage (range scans by id). Forklift threads move pallets between the floors —
//! two separate operations per move, so there is always a moment when a pallet is in
//! neither structure.
//!
//! An auditor must count pallets without stopping the forklifts. Reading the two
//! structures with two separate snapshots could double-count a pallet (seen in cold, then
//! again in hot after it moved) or lose arbitrarily many. One pin on the shared camera,
//! then one [`SnapshotSource::view_in`] per structure, gives a view of *each* structure at
//! a *single shared timestamp*, so the audit can only miss the (bounded) pallets
//! physically in flight at that instant, and can never double-count.
//!
//! Run with `cargo run --example cross_structure_audit`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use vcas_repro::core::Camera;
use vcas_repro::structures::view::SnapshotSource;
use vcas_repro::structures::{Nbbst, VcasHashMap};

const PALLETS: u64 = 500;
const FORKLIFTS: u64 = 2;

fn main() {
    let camera = Camera::new();
    let hot = Arc::new(VcasHashMap::new_versioned(&camera, 128));
    let cold = Arc::new(Nbbst::new_versioned(&camera));

    // Every pallet starts in cold storage; its stored value is its weight.
    for id in 0..PALLETS {
        cold.insert(id, 100 + id);
    }

    // Forklift `f` owns pallets with `id % FORKLIFTS == f` and shuttles them between the
    // floors; ownership is disjoint, so at most FORKLIFTS pallets are in flight at once.
    let stop = Arc::new(AtomicBool::new(false));
    let forklifts: Vec<_> = (0..FORKLIFTS)
        .map(|f| {
            let (hot, cold) = (hot.clone(), cold.clone());
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut in_cold = true;
                let mut moves = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for id in (f..PALLETS).step_by(FORKLIFTS as usize) {
                        let weight = 100 + id;
                        if in_cold {
                            assert!(cold.remove(id));
                            assert!(hot.insert(id, weight));
                        } else {
                            assert!(hot.remove(id));
                            assert!(cold.insert(id, weight));
                        }
                        moves += 1;
                    }
                    in_cold = !in_cold;
                }
                moves
            })
        })
        .collect();

    // The audits: each takes ONE pin on the shared camera and reads both floors in it.
    for audit in 0..8 {
        let snap = camera.pin_snapshot();
        let hot_view = hot.view_in(&snap).unwrap();
        let cold_view = cold.view_in(&snap).unwrap();
        assert_eq!(
            hot_view.timestamp(),
            cold_view.timestamp(),
            "views in one pin must share one timestamp"
        );

        let on_floor = hot_view.len();
        let in_storage = cold_view.len();
        let seen = (on_floor + in_storage) as u64;
        // Atomicity across both structures: nothing double-counted, at most the
        // in-flight pallets missing.
        assert!(
            (PALLETS - FORKLIFTS..=PALLETS).contains(&seen),
            "audit {audit}: saw {seen} of {PALLETS} pallets — inconsistent cross-structure read"
        );
        // Spot-check: no pallet is on both floors at this timestamp.
        for id in (0..PALLETS).step_by(97) {
            assert!(
                hot_view.get(id).is_none() || cold_view.get(id).is_none(),
                "audit {audit}: pallet {id} on both floors at one timestamp"
            );
        }
        println!(
            "audit {audit}: ts={} hot={on_floor} cold={in_storage} total={seen} (in flight <= {FORKLIFTS})",
            snap.handle().raw(),
        );
    }

    stop.store(true, Ordering::Relaxed);
    let total_moves: u64 = forklifts.into_iter().map(|h| h.join().unwrap()).sum();

    // With the forklifts parked, a final shared pin accounts for every pallet.
    let snap = camera.pin_snapshot();
    let final_total = hot.view_in(&snap).unwrap().len() + cold.view_in(&snap).unwrap().len();
    assert_eq!(final_total as u64, PALLETS, "every pallet accounted for once movement stops");
    println!(
        "final: {PALLETS} pallets accounted for after {total_moves} moves across {} snapshots",
        camera.snapshots_taken()
    );
}
