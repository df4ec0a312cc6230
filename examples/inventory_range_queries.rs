//! A warehouse inventory index served by the snapshot-capable BST (`VcasBST`).
//!
//! Stocking threads insert and remove SKUs concurrently while a reporting thread runs
//! *atomic* range queries ("how many SKUs are currently stocked in aisle 40–49?") and
//! multi-searches — the paper's motivating use case for linearizable multi-point queries.
//! Each report opens one snapshot view and asks every question of it.
//!
//! Run with `cargo run --release --example inventory_range_queries`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use vcas_repro::structures::{MapSnapshotView, Nbbst};

const AISLES: u64 = 100;
const SLOTS_PER_AISLE: u64 = 1000;

fn sku(aisle: u64, slot: u64) -> u64 {
    aisle * SLOTS_PER_AISLE + slot
}

fn main() {
    let inventory = Arc::new(Nbbst::new_versioned_default());

    // Start with every aisle half full.
    for aisle in 0..AISLES {
        for slot in (0..SLOTS_PER_AISLE).step_by(2) {
            inventory.insert(sku(aisle, slot), 1);
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut stockers = Vec::new();
    for worker in 0..3u64 {
        let inventory = inventory.clone();
        let stop = stop.clone();
        stockers.push(std::thread::spawn(move || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(worker);
            let mut churn = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let aisle = rng.gen_range(0..AISLES);
                let slot = rng.gen_range(0..SLOTS_PER_AISLE);
                if rng.gen_bool(0.5) {
                    inventory.insert(sku(aisle, slot), 1);
                } else {
                    inventory.remove(sku(aisle, slot));
                }
                churn += 1;
            }
            churn
        }));
    }

    // Reporting thread: per-aisle stock counts from atomic range queries. Because each report
    // is computed on one snapshot view, the counts are mutually consistent even though
    // stockers keep mutating the index.
    for report in 0..5 {
        let view = inventory.view();
        let mut total = 0usize;
        let mut busiest = (0u64, 0usize);
        for aisle in (40..50).chain(90..92) {
            let stocked = view.range(sku(aisle, 0), sku(aisle, SLOTS_PER_AISLE - 1));
            if stocked.len() > busiest.1 {
                busiest = (aisle, stocked.len());
            }
            total += stocked.len();
        }
        println!(
            "report {report}: {total} SKUs stocked in audited aisles, busiest aisle {} ({} SKUs)",
            busiest.0, busiest.1
        );

        // Atomic multi-search: check a picking list against the same snapshot.
        let picking_list = [sku(41, 10), sku(41, 11), sku(48, 500), sku(91, 2)];
        let availability = view.multi_get(&picking_list);
        let available = availability.iter().filter(|a| a.is_some()).count();
        println!("  picking list: {available}/{} items available", picking_list.len());
        for (sku, found) in picking_list.iter().zip(&availability) {
            assert_eq!(found.is_some(), view.contains(*sku), "one view, one answer");
        }
        drop(view);
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    stop.store(true, Ordering::Relaxed);
    let churn: u64 = stockers.into_iter().map(|h| h.join().unwrap()).sum();
    println!("stockers applied {churn} updates while reports ran");
    println!("final inventory size: {}", inventory.view().len());
}
