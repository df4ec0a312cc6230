//! Deterministic model checks of the *structure* edge protocols (compiled only under
//! `--cfg vcas_model`; a stock `cargo test` sees an empty binary).
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg vcas_model" \
//!     cargo test -p vcas-analysis --test model_structures -- --test-threads=1
//! RUSTFLAGS="--cfg vcas_model --cfg vcas_weaken_mark" \
//!     cargo test -p vcas-analysis --test model_structures -- --test-threads=1
//! ```
//!
//! Each scenario drives two racing operations of a structure through the narrowest window
//! of its protocol — the cell both operations must CAS. The list and BST scenarios run
//! once per pointer-cell mode (`Plain` and `Versioned` are separate monomorphizations with
//! separate reclamation paths):
//!
//! * Harris list: `remove`'s logical-delete mark and `insert`'s publish both target the
//!   same predecessor's `next` word; the one-bucket hash map runs the same race on a
//!   bucket, whose head cell takes the remove's unlink CAS;
//! * EFRB BST: `remove`'s mark on the parent's `update` word races `insert`'s iflag on
//!   the same word, forcing the flag/mark/unflag helping dance;
//! * skip list: `insert`'s level-0 publish and `remove`'s level-0 mark race on one
//!   tower cell; and two removes of adjacent keys race a mark against an unlink splice
//!   on one tower cell.
//!
//! Stock builds must DFS-exhaust every interleaving cleanly. Under
//! `--cfg vcas_weaken_mark` each structure treats a *lost* mark CAS as won (a deliberate
//! protocol mutation, see the `vcas_weaken_mark` sites in crates/structures), and the
//! checker must catch the resulting lost update with a replayable schedule.
//!
//! Two scenarios drive the *elision* step of `VersionedCell::compare_and_swap` (the eager
//! same-timestamp unlink): elision racing truncation on the shared gate (the head word's
//! tag bit), and elision racing a pinned reader. Under
//! `--cfg vcas_weaken_elide` (elision accepts *any* displaced head, not just
//! same-timestamp ones) the pinned-reader scenario must catch the erased history.
#![cfg(vcas_model)]

use std::sync::Arc;

use vcas_core::{Camera, Collectible, Mode, VersionedCas};
use vcas_structures::{
    ConcurrentMap, HarrisList, MapSnapshotView, Nbbst, VcasHashMap, VcasSkipList,
};

use vcas_sync::model::{self, Config, Report};

/// Initializes process-wide singletons (EBR default domain, model panic hook) on the
/// harness thread, so their one-time setup is not interleaved by the scheduler.
fn prewarm() {
    drop(vcas_ebr::pin());
}

fn cfg() -> Config {
    Config::from_env()
}

/// Shared postlude: stock builds must exhaust with no violation; mutated builds
/// (`--cfg vcas_weaken_mark`) must observe the seeded protocol bug.
fn check(name: &str, report: Report) {
    if cfg!(vcas_weaken_mark) {
        assert!(
            report.found_violation(),
            "{name}: the weakened mark CAS must be caught by the model checker: {report:?}"
        );
        let v = report.violation.as_ref().unwrap();
        println!(
            "{name}: mutation caught as expected: {} (replay schedule: {:?})",
            v.message, v.schedule
        );
    } else {
        report.assert_no_violation(name);
        println!(
            "{name}: {} schedule(s), {} pruned, {} sleep-blocked, exhausted={}",
            report.schedules, report.pruned, report.sleep_blocked, report.exhausted
        );
        assert!(report.exhausted, "{name}: must enumerate to completion: {report:?}");
    }
}

/// Postlude for the elision scenarios' *catcher*: stock builds exhaust cleanly, and the
/// `vcas_weaken_elide` mutation (elide `>=` instead of `==`) must be observed.
fn check_elide(name: &str, report: Report) {
    if cfg!(vcas_weaken_elide) {
        assert!(
            report.found_violation(),
            "{name}: the weakened elision guard must be caught by the model checker: {report:?}"
        );
        let v = report.violation.as_ref().unwrap();
        println!(
            "{name}: mutation caught as expected: {} (replay schedule: {:?})",
            v.message, v.schedule
        );
    } else if cfg!(any(
        vcas_weaken_publish,
        vcas_weaken_fence,
        vcas_weaken_mark,
        vcas_weaken_prune,
        vcas_weaken_gate,
        vcas_weaken_slot
    )) {
        // Some *other* deliberate weakening is compiled in (the CI mutation leg sets them
        // together); this scenario is not its designated catcher, so just report.
        println!("{name}: ran under a foreign mutation cfg: {report:?}");
    } else {
        report.assert_no_violation(name);
        println!(
            "{name}: {} schedule(s), {} pruned, {} sleep-blocked, exhausted={}",
            report.schedules, report.pruned, report.sleep_blocked, report.exhausted
        );
        assert!(report.exhausted, "{name}: must enumerate to completion: {report:?}");
    }
}

/// Postlude for scenarios that are *neutral* to every mutation cfg (no twin targets
/// them; the elide weakening, for one, is invisible when all competing timestamps are
/// already equal): stock builds exhaust cleanly; under any deliberate weakening the
/// outcome is only reported.
fn check_neutral(name: &str, report: Report) {
    if cfg!(any(
        vcas_weaken_publish,
        vcas_weaken_fence,
        vcas_weaken_mark,
        vcas_weaken_elide,
        vcas_weaken_prune,
        vcas_weaken_gate,
        vcas_weaken_slot
    )) {
        println!("{name}: ran under a mutation cfg (not this scenario's catcher): {report:?}");
    } else {
        report.assert_no_violation(name);
        println!(
            "{name}: {} schedule(s), {} pruned, {} sleep-blocked, exhausted={}",
            report.schedules, report.pruned, report.sleep_blocked, report.exhausted
        );
        assert!(report.exhausted, "{name}: must enumerate to completion: {report:?}");
    }
}

/// Harris list: a concurrent mark (logical delete of key 2) vs. insert (of key 3) at
/// the same predecessor — both CAS node 2's `next` word. In every interleaving both
/// operations succeed, key 3 survives, and key 2 is gone. Run once per mode: the plain
/// list retires the unlinked node at the unlink CAS, the versioned one through its counter.
/// The one-bucket hash map runs the same list code on a bucket head cell: keys 2 and 3
/// share the bucket, and the remove's unlink CAS lands on the head cell.
fn list_mark_vs_insert<T: ConcurrentMap + 'static>(name: &str, make: fn() -> T) {
    prewarm();
    let report = model::explore(cfg(), move || {
        let list = Arc::new(make());
        // Single-threaded prologue (not interleaved): the node whose `next` word the
        // racing operations contend on.
        assert!(list.insert(2, 20));
        let remover = {
            let list = list.clone();
            model::spawn(move || list.remove(2))
        };
        let inserted = list.insert(3, 30);
        let removed = remover.join();
        assert!(inserted, "insert(3) had no competing key and must succeed");
        assert!(removed, "remove(2) had no competing remover and must succeed");
        assert_eq!(list.get(3), Some(30), "insert(3) was lost by the racing remove");
        assert_eq!(list.get(2), None, "remove(2) reported success but 2 is reachable");
    });
    check(name, report);
}

#[test]
fn list_mark_vs_insert_same_predecessor() {
    list_mark_vs_insert("list_mark_vs_insert_same_predecessor", HarrisList::new_versioned_default);
}

#[test]
fn list_mark_vs_insert_same_predecessor_plain() {
    list_mark_vs_insert("list_mark_vs_insert_same_predecessor_plain", HarrisList::new_plain);
}

#[test]
fn hashmap_one_bucket_mark_vs_insert() {
    list_mark_vs_insert("hashmap_one_bucket_mark_vs_insert", || {
        VcasHashMap::new_versioned(&Camera::new(), 1)
    });
}

#[test]
fn hashmap_one_bucket_mark_vs_insert_plain() {
    list_mark_vs_insert("hashmap_one_bucket_mark_vs_insert_plain", || VcasHashMap::new_plain(1));
}

/// Truncation racing a structure-level remove: budget-1 `collect_bounded` passes over a
/// one-bucket hash map run until a cycle completes, while another thread removes key 1.
/// Its mark lands on node 1's `next` cell, which holds history the sweep cuts, and its
/// unlink on the head cell, whose cut can drop node 1's last reference. In every
/// interleaving the remove wins, key 2 survives, and the cycle completes. (Node
/// conservation after a drain is not checked here: the EBR domain is process-wide, and a
/// run the checker abandons can leave it unable to drain for every later run.)
#[test]
fn hashmap_one_bucket_sweep_vs_remove() {
    prewarm();
    let report = model::explore(cfg(), || {
        let cam = Camera::new();
        let map = Arc::new(VcasHashMap::new_versioned(&cam, 1));
        // Single-threaded prologue: node 1's `next` gains a version when 2 links behind
        // it, and the remove below writes at a later timestamp than both.
        assert!(map.insert(1, 10));
        cam.take_snapshot();
        assert!(map.insert(2, 20));
        cam.take_snapshot();
        let floor = cam.min_active();
        let sweeper = {
            let map = map.clone();
            model::spawn(move || {
                let g = vcas_ebr::pin();
                let mut passes = 1;
                while !map.collect_bounded(floor, 1, &g).completed_cycle {
                    passes += 1;
                    assert!(passes <= 4, "budget-1 passes over two keys never completed");
                }
            })
        };
        let removed = map.remove(1);
        sweeper.join();
        assert!(removed, "remove(1) had no competing remover and must succeed");
        assert_eq!(map.get(1), None, "remove(1) reported success but 1 is reachable");
        assert_eq!(map.get(2), Some(20), "the sweep or the remove lost key 2");
    });
    check_neutral("hashmap_one_bucket_sweep_vs_remove", report);
}

/// EFRB BST: `remove(1)`'s dflag/mark races `insert(2)`'s iflag on the same internal
/// node's `update` word, exercising the flag/mark/unflag helping protocol with a
/// competing helper. In every interleaving both operations succeed. Run once per mode:
/// the plain tree retires unlinked nodes at the iunflag/dunflag winner, the versioned one
/// through their counters.
fn bst_helping_dance<M: Mode>(name: &str, make: fn() -> Nbbst<M>) {
    prewarm();
    let report = model::explore(cfg(), move || {
        let tree = Arc::new(make());
        // Single-threaded prologue: the leaf both racers' flag words hang over.
        assert!(tree.insert(1, 10));
        let remover = {
            let tree = tree.clone();
            model::spawn(move || tree.remove(1))
        };
        let inserted = tree.insert(2, 20);
        let removed = remover.join();
        assert!(inserted, "insert(2) had no competing key and must succeed");
        assert!(removed, "remove(1) had no competing remover and must succeed");
        assert_eq!(tree.get(2), Some(20), "insert(2) was spliced out by the racing remove");
        assert_eq!(tree.get(1), None, "remove(1) reported success but 1 is reachable");
    });
    check(name, report);
}

#[test]
fn bst_insert_delete_helping_dance() {
    bst_helping_dance("bst_insert_delete_helping_dance", Nbbst::new_versioned_default);
}

#[test]
fn bst_insert_delete_helping_dance_plain() {
    bst_helping_dance("bst_insert_delete_helping_dance_plain", Nbbst::new_plain);
}

/// Skip list: `insert(3)`'s level-0 publish races `remove(2)`'s level-0 mark on the
/// same tower cell (node 2's level-0 successor word). In every interleaving both
/// operations succeed, key 3 survives, and key 2 is unreachable.
#[test]
fn skiplist_publish_vs_remove_mark_level0() {
    prewarm();
    let report = model::explore(cfg(), || {
        let sl = Arc::new(VcasSkipList::new_versioned_default());
        // Single-threaded prologue: the node whose level-0 cell the racers contend on.
        assert!(sl.insert(2, 20));
        let remover = {
            let sl = sl.clone();
            model::spawn(move || sl.remove(2))
        };
        let inserted = sl.insert(3, 30);
        let removed = remover.join();
        assert!(inserted, "insert(3) had no competing key and must succeed");
        assert!(removed, "remove(2) had no competing remover and must succeed");
        assert_eq!(sl.get(3), Some(30), "insert(3) was lost by the racing remove");
        assert_eq!(sl.get(2), None, "remove(2) reported success but 2 is reachable");
    });
    check("skiplist_publish_vs_remove_mark_level0", report);
}

/// Skip list: `remove(1)` races `remove(2)` on adjacent nodes. `remove(2)`'s unlink
/// splices at node 1's level-0 cell while `remove(1)` marks that cell, so a splice can
/// lose to the mark — the lost-splice path on which `find` restarts its descent from the
/// top, since a marked cell would fail every retry in place. In every interleaving both
/// removes succeed and only key 3 remains.
#[test]
fn skiplist_adjacent_removes() {
    prewarm();
    let report = model::explore(cfg(), || {
        let sl = Arc::new(VcasSkipList::new_versioned_default());
        // Single-threaded prologue: three adjacent nodes.
        for k in 1..=3 {
            assert!(sl.insert(k, k * 10));
        }
        let remover = {
            let sl = sl.clone();
            model::spawn(move || sl.remove(1))
        };
        let removed_2 = sl.remove(2);
        let removed_1 = remover.join();
        assert!(removed_1, "remove(1) had no competing remover and must succeed");
        assert!(removed_2, "remove(2) had no competing remover and must succeed");
        assert_eq!(sl.get(3), Some(30), "key 3 was lost by the racing removes");
        assert_eq!(sl.view().range(0, u64::MAX), vec![(3, 30)], "a removed key is reachable");
    });
    check("skiplist_adjacent_removes", report);
}

/// Elision vs. truncation: a same-timestamp vCAS (whose elision step wants the
/// head word's gate bit) races `collect_before` (which holds it). In every interleaving the
/// update wins, the suffix below the cut dies exactly once (by the truncation, by a
/// skipped-elision-then-lazy-collect, or not yet), and slot conservation holds after the
/// cell drops — double frees or leaks surface as violated conservation counters.
///
/// Every competing timestamp pair in this scenario is already equal, so the
/// `vcas_weaken_elide` comparator change (`==` → `>=`) is invisible here; the
/// pinned-reader scenario below is the mutation's designated catcher.
#[test]
fn vcas_elide_vs_truncation_gate() {
    prewarm();
    let report = model::explore(cfg(), || {
        let cam = Camera::new();
        let cell = Arc::new(VersionedCas::new(0u64, &cam));
        // Single-threaded prologue: history [1@1, 0@0], so the truncator has a real cut
        // to make while the racing update's elision contends for the same gate.
        {
            let g = vcas_ebr::pin();
            cam.take_snapshot();
            assert!(cell.compare_and_swap(0, 1, &g));
        }
        let floor = cam.min_active();
        let truncator = {
            let cell = cell.clone();
            model::spawn(move || {
                let g = vcas_ebr::pin();
                cell.collect_before(floor, &g)
            })
        };
        {
            let g = vcas_ebr::pin();
            // Same timestamp as the displaced head: the elision step fires (or skips
            // under gate contention and leaves the node to lazy collection).
            assert!(cell.compare_and_swap(1, 2, &g));
        }
        truncator.join();
        let g = vcas_ebr::pin();
        assert_eq!(cell.read(&g), 2, "the update must win in every interleaving");
        assert!(
            cell.version_count(&g) <= 3,
            "list may hold at most [2@1, 1@1, 0@0] when both cleanups were skipped"
        );
        drop(g);
        let cell = Arc::try_unwrap(cell).ok().expect("all clones joined");
        drop(cell);
        assert_eq!(
            cam.versions_created(),
            cam.versions_retired() + cam.versions_dropped(),
            "slot conservation must hold whatever the elide/truncate interleaving"
        );
    });
    check_neutral("vcas_elide_vs_truncation_gate", report);
}

/// Elision vs. a pinned reader: a snapshot pinned *between* two update eras must keep
/// reading its version while a racing writer's same-timestamp updates elide. Stock
/// elision only ever unlinks a version shadowed at the *same* timestamp — never one a
/// pin can address. Under `--cfg vcas_weaken_elide` the comparator accepts the pinned-era
/// version too (stamps are monotone), erasing the history the pin needs: the racing
/// pinned read then observes a moved value, which the checker must catch.
#[test]
fn vcas_elide_vs_pinned_reader() {
    prewarm();
    let report = model::explore(cfg(), || {
        let cam = Camera::new();
        let cell = Arc::new(VersionedCas::new(0u64, &cam));
        // Single-threaded prologue: value 1 at the pre-pin timestamp, then a pin on it.
        {
            let g = vcas_ebr::pin();
            assert!(cell.compare_and_swap(0, 1, &g));
        }
        let pinned = cam.pin_snapshot();
        let writer = {
            let cell = cell.clone();
            model::spawn(move || {
                let g = vcas_ebr::pin();
                // First post-pin update links a new version (stock: the displaced head
                // is the pinned era's, different timestamp); the second displaces a
                // same-timestamp head and elides it.
                assert!(cell.compare_and_swap(1, 2, &g));
                assert!(cell.compare_and_swap(2, 3, &g));
            })
        };
        {
            // The racing pinned reader: its frozen value must never move.
            let g = vcas_ebr::pin();
            assert_eq!(
                cell.read_snapshot(pinned.handle(), &g),
                1,
                "elision replaced a version the pinned handle could still read"
            );
        }
        writer.join();
        let g = vcas_ebr::pin();
        assert_eq!(cell.read_snapshot(pinned.handle(), &g), 1, "pinned read moved after join");
        assert_eq!(cell.read(&g), 3);
        drop(g);
        drop(pinned);
        let cell = Arc::try_unwrap(cell).ok().expect("all clones joined");
        drop(cell);
        assert_eq!(
            cam.versions_created(),
            cam.versions_retired() + cam.versions_dropped(),
            "slot conservation must hold under racing elision and a pin"
        );
    });
    check_elide("vcas_elide_vs_pinned_reader", report);
}
