//! As-of audit over three structures sharing one camera: time-travel for compliance.
//!
//! A payment ledger keeps three structures on one camera: an `Nbbst` of accounts
//! (id → balance), a `VcasHashMap` of per-account transaction counts, and a second
//! `Nbbst` holding a daily-total register. Settlement threads mutate all three
//! concurrently — but at the end of each business "day", the operator keeps a **pin** on
//! that instant ([`Camera::pin_snapshot`]). Days keep running; the held pins keep every
//! end-of-day instant addressable.
//!
//! Later, an auditor replays any closed day with [`SnapshotSource::view_in`]: one view of
//! *each* of the three structures at that day's pin, so the day's invariant — the sum of
//! account balances equals the daily-total register — can be re-checked long after the
//! live structures have moved on. A temporal diff ([`SnapshotSource::diff`]) then reports
//! exactly which accounts changed between two days. When the audit ends and the pins
//! drop, the retained history is released to the reclamation subsystem.
//!
//! The example is self-checking (asserts on every audit) and prints a summary; run with
//! `cargo run --example audit_log_asof`.

use std::sync::Arc;

use vcas_repro::core::{Camera, ReclaimPolicy, RetentionError};
use vcas_repro::structures::view::{MapSnapshotView, SnapshotSource};
use vcas_repro::structures::{Nbbst, TemporalDiff, VcasHashMap};

const ACCOUNTS: u64 = 64;
const DAYS: usize = 5;
const TOTAL_KEY: u64 = 0;

fn main() {
    let camera = Camera::new();
    let balances = Arc::new(Nbbst::new_versioned(&camera));
    let tx_counts = Arc::new(VcasHashMap::new_versioned(&camera, 64));
    let register = Arc::new(Nbbst::new_versioned(&camera));
    camera.register_collectible(&balances);
    camera.register_collectible(&tx_counts);
    camera.register_collectible(&register);
    let collector = ReclaimPolicy::Background { interval_ms: 2, budget: 512 }.install(&camera);

    // Day 0 opening state: every account holds 1000; the register totals it.
    for id in 1..=ACCOUNTS {
        balances.insert(id, 1000);
        tx_counts.insert(id, 0);
    }
    register.insert(TOTAL_KEY, 1000 * ACCOUNTS);

    // Run the days: each day settles a deterministic batch of transfers (updating all
    // three structures), then closes with a pin on that instant.
    let mut day_pins = Vec::new();
    let mut x = 0x5EEDu64;
    for day in 0..DAYS {
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let id = x % ACCOUNTS + 1;
            let delta = (x >> 17) % 50;
            // Inserts are not upserts: a balance update is remove-then-insert. (The
            // transient absence is why the auditor needs the pinned instants — a
            // mid-settlement read could catch an account in flight.)
            let old_balance = balances.view().get(id).unwrap();
            balances.remove(id);
            balances.insert(id, old_balance + delta);
            let old_count = tx_counts.view().get(id).unwrap();
            tx_counts.remove(id);
            tx_counts.insert(id, old_count + 1);
            let old_total = register.view().get(TOTAL_KEY).unwrap();
            register.remove(TOTAL_KEY);
            register.insert(TOTAL_KEY, old_total + delta);
        }
        let close = camera.pin_snapshot();
        println!("day {day} closed at ts={}", close.handle().raw());
        day_pins.push(close);
    }
    println!("the camera holds {} pins, one per closed day", camera.pinned_count());

    // The audit, long after the fact: replay every closed day at its exact instant.
    let addressable = "a pinned close-of-day must stay addressable";
    for (day, close) in day_pins.iter().enumerate() {
        let bal_view = balances.view_in(close).expect(addressable);
        let txc_view = tx_counts.view_in(close).expect(addressable);
        let reg_view = register.view_in(close).expect(addressable);

        // Invariant 1: the day's balances sum to the day's register total — across two
        // structures, at one timestamp.
        let balance_sum: u64 = bal_view.iter().map(|(_, v)| v).sum();
        let register_total = reg_view.get(TOTAL_KEY).expect("register row exists");
        assert_eq!(
            balance_sum, register_total,
            "day {day}: balances and register disagree at the pinned instant"
        );
        // Invariant 2: every account exists in both balance and count structures.
        assert_eq!(bal_view.len(), ACCOUNTS as usize);
        assert_eq!(txc_view.len(), ACCOUNTS as usize);
        println!("day {day} audit ok: total={balance_sum} at ts={}", close.handle().raw());
    }

    // Which accounts moved between day 0's close and the final day's close?
    let first = day_pins[0].handle().raw();
    let last = day_pins[DAYS - 1].handle().raw();
    let moved: TemporalDiff = balances.diff(first, last).expect("both endpoints are pinned");
    assert!(moved.inserted.is_empty() && moved.removed.is_empty(), "no accounts open or close");
    assert!(!moved.changed.is_empty(), "days 1..{DAYS} settled transfers");
    for (id, old, new) in moved.changed.iter().take(3) {
        println!("account {id}: {old} -> {new}");
    }
    let tx_delta: u64 = {
        let old = tx_counts.view_at(first).unwrap();
        let new = tx_counts.view_at(last).unwrap();
        (1..=ACCOUNTS).map(|id| new.get(id).unwrap() - old.get(id).unwrap()).sum()
    };
    assert_eq!(tx_delta, 200 * (DAYS as u64 - 1), "every settlement counted exactly once");
    println!(
        "diff day0 -> day{}: {} accounts changed, {} transactions settled",
        DAYS - 1,
        moved.changed.len(),
        tx_delta
    );

    // Audit over: drop the pins, and the retained days become collectible. After a sweep,
    // the old instants are genuinely gone — as-of refuses rather than guesses.
    let day0_ts = first;
    drop(day_pins);
    // Stop the background collector first: a pass it has in flight makes the sweep's
    // passes skip (see `Camera::collect_to_quiescence`).
    drop(collector);
    let guard = vcas_repro::ebr::pin();
    let sweep = camera.collect_to_quiescence(1 << 20, 64, &guard);
    assert!(sweep.completed_cycle, "reclamation must reach quiescence");
    drop(guard);
    assert_eq!(camera.pinned_count(), 0);
    assert!(
        matches!(balances.view_at(day0_ts).map(|_| ()), Err(RetentionError::Truncated { .. })),
        "released day must no longer be addressable"
    );
    println!(
        "pins released: day-0 ts={day0_ts} now refused (watermark={}), {} versions retired",
        camera.oldest_retained(),
        camera.versions_retired()
    );
}
