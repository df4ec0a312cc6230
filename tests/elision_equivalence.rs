//! Elision equivalence: version elision (the eager same-timestamp unlink inside
//! `VersionedCas::compare_and_swap`) is an *allocation* optimization, never an
//! *observable* one. Every pinned view and every `view_at(ts)` must read exactly the
//! same state whether elision is on or off — including while two writers and a
//! truncation pass race the structure.

use std::collections::BTreeMap;

use proptest::prelude::*;

use vcas_repro::core::Camera;
use vcas_repro::structures::{AtomicRangeMap, MapSnapshotView, Nbbst};

/// One sequential step: mutate, or close the current instant with a pinned view.
#[derive(Debug, Clone)]
enum Step {
    Insert(u64, u64),
    Remove(u64),
    Pin,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..48u64, 1..1000u64).prop_map(|(k, v)| Step::Insert(k, v)),
        (0..48u64).prop_map(Step::Remove),
        (0..48u64, 1..1000u64).prop_map(|(k, v)| Step::Insert(k, v)),
        (0..48u64).prop_map(Step::Remove),
        Just(Step::Pin),
    ]
}

/// A writer's op against its own (disjoint) key slice in the concurrent phase.
#[derive(Debug, Clone)]
enum WriterOp {
    Insert(u64, u64),
    Remove(u64),
    Reinstall(u64, u64),
}

fn writer_op_strategy() -> impl Strategy<Value = WriterOp> {
    prop_oneof![
        (0..24u64, 1..1000u64).prop_map(|(k, v)| WriterOp::Insert(k, v)),
        (0..24u64).prop_map(WriterOp::Remove),
        (0..24u64, 1..1000u64).prop_map(|(k, v)| WriterOp::Reinstall(k, v)),
    ]
}

/// Applies one writer op to `tree`, offsetting keys into the writer's disjoint slice.
/// Every arm is deterministic on the tree's *logical* state regardless of interleaving
/// with the other writer (disjoint keys) or truncation (never changes logical state).
fn apply_writer_op(tree: &Nbbst, base: u64, op: &WriterOp) {
    match op {
        WriterOp::Insert(k, v) => {
            tree.insert(base + k, *v);
        }
        WriterOp::Remove(k) => {
            tree.remove(base + k);
        }
        WriterOp::Reinstall(k, v) => {
            // insert is insert-if-absent, so a remove-then-insert is the only way to
            // move a present key to a new value — and it strands a dead version for
            // elision/truncation to fight over.
            tree.remove(base + k);
            tree.insert(base + k, *v);
        }
    }
}

/// Replays `ops` on a writer's model slice, mirroring `apply_writer_op`.
fn apply_writer_ops_to_model(model: &mut BTreeMap<u64, u64>, base: u64, ops: &[WriterOp]) {
    for op in ops {
        match op {
            WriterOp::Insert(k, v) => {
                model.entry(base + k).or_insert(*v);
            }
            WriterOp::Remove(k) => {
                model.remove(&(base + k));
            }
            WriterOp::Reinstall(k, v) => {
                model.insert(base + k, *v);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Sequential equivalence: one op sequence applied to two trees — elision on and
    /// off — with pinned views opened at random points. The cameras stay in timestamp
    /// lockstep (only snapshots advance the clock), so at the end every recorded
    /// timestamp must show the identical state through both `view_at(ts)` and the
    /// still-open pinned views, on both trees.
    #[test]
    fn sequential_views_identical_with_and_without_elision(
        steps in proptest::collection::vec(step_strategy(), 1..200),
    ) {
        let cam_on = Camera::new();
        let cam_off = Camera::new();
        cam_off.set_elision_enabled(false);
        prop_assert!(cam_on.elision_enabled());
        let tree_on = Nbbst::new_versioned(&cam_on);
        let tree_off = Nbbst::new_versioned(&cam_off);

        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // (timestamp, model state at the pin, open view on each tree)
        let mut pins = Vec::new();
        for step in &steps {
            match step {
                Step::Insert(k, v) => {
                    model.entry(*k).or_insert(*v);
                    prop_assert_eq!(tree_on.insert(*k, *v), tree_off.insert(*k, *v));
                }
                Step::Remove(k) => {
                    model.remove(k);
                    prop_assert_eq!(tree_on.remove(*k), tree_off.remove(*k));
                }
                Step::Pin => {
                    let view_on = tree_on.view();
                    let view_off = tree_off.view();
                    let expected: Vec<(u64, u64)> =
                        model.iter().map(|(k, v)| (*k, *v)).collect();
                    // view() pins "right now"; both cameras advanced by exactly one.
                    prop_assert_eq!(cam_on.current_timestamp(), cam_off.current_timestamp());
                    let ts = cam_on.current_timestamp() - 1;
                    pins.push((ts, expected, view_on, view_off));
                }
            }
        }

        let expected_final: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(tree_on.range(0, u64::MAX), expected_final.clone());
        prop_assert_eq!(tree_off.range(0, u64::MAX), expected_final);
        for (ts, expected, view_on, view_off) in &pins {
            prop_assert_eq!(&view_on.iter().collect::<Vec<_>>(), expected);
            prop_assert_eq!(&view_off.iter().collect::<Vec<_>>(), expected);
            let at_on = tree_on.view_at(*ts).expect("pin retains ts").iter().collect::<Vec<_>>();
            let at_off = tree_off.view_at(*ts).expect("pin retains ts").iter().collect::<Vec<_>>();
            prop_assert_eq!(&at_on, expected);
            prop_assert_eq!(&at_off, expected);
        }
        prop_assert_eq!(cam_off.versions_elided(), 0);
    }

    /// Concurrent equivalence: two writers on disjoint key slices plus a truncation
    /// pass race each tree. The final logical state is interleaving-independent
    /// (disjoint keys; truncation is state-preserving), so it must match the model on
    /// both trees, and a view pinned before the race must still read the prefill.
    #[test]
    fn concurrent_writers_and_truncation_preserve_views(
        ops_a in proptest::collection::vec(writer_op_strategy(), 1..40),
        ops_b in proptest::collection::vec(writer_op_strategy(), 1..40),
    ) {
        let cam_on = Camera::new();
        let cam_off = Camera::new();
        cam_off.set_elision_enabled(false);

        for (tree, cam) in [
            (Nbbst::new_versioned(&cam_on), &cam_on),
            (Nbbst::new_versioned(&cam_off), &cam_off),
        ] {
            // Writer A owns [0, 24), writer B owns [100, 124); prefill half of each.
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for base in [0u64, 100] {
                for k in (0..24).step_by(2) {
                    prop_assert!(tree.insert(base + k, base + k * 7));
                    model.insert(base + k, base + k * 7);
                }
            }
            let prefill: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            let before = tree.view();

            std::thread::scope(|s| {
                s.spawn(|| {
                    for op in &ops_a {
                        apply_writer_op(&tree, 0, op);
                    }
                });
                s.spawn(|| {
                    for op in &ops_b {
                        apply_writer_op(&tree, 100, op);
                    }
                });
                s.spawn(|| {
                    // The truncation pass: advance the clock (so new versions get
                    // fresh timestamps and old ones become collectable) and sweep.
                    for _ in 0..8 {
                        cam.take_snapshot();
                        tree.collect_versions();
                        std::thread::yield_now();
                    }
                });
            });

            apply_writer_ops_to_model(&mut model, 0, &ops_a);
            apply_writer_ops_to_model(&mut model, 100, &ops_b);
            let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(tree.range(0, u64::MAX), expected);
            prop_assert_eq!(before.iter().collect::<Vec<_>>(), prefill);
            drop(before);
            // One more sweep with no pin outstanding, then the conservation invariant.
            cam.take_snapshot();
            tree.collect_versions();
            drop(tree);
        }
        prop_assert_eq!(cam_off.versions_elided(), 0);
    }
}

/// A fixed workload where elision demonstrably fires: with the clock never advancing,
/// repeated remove/reinstall of the same keys keeps displacing same-timestamp versions.
/// The observable state is identical either way; only the allocation counters differ.
#[test]
fn fixed_workload_elides_with_identical_observations() {
    let cam_on = Camera::new();
    let cam_off = Camera::new();
    cam_off.set_elision_enabled(false);
    let tree_on = Nbbst::new_versioned(&cam_on);
    let tree_off = Nbbst::new_versioned(&cam_off);

    for tree in [&tree_on, &tree_off] {
        for k in 1..=32u64 {
            assert!(tree.insert(k, k));
        }
        for round in 0..4u64 {
            for k in 1..=32u64 {
                assert!(tree.remove(k));
                assert!(tree.insert(k, k + round));
            }
        }
    }

    assert_eq!(tree_on.range(0, u64::MAX), tree_off.range(0, u64::MAX));
    assert!(cam_on.versions_elided() > 0, "same-timestamp churn must elide");
    assert_eq!(cam_off.versions_elided(), 0);
    assert!(
        cam_on.versions_created() < cam_off.versions_created(),
        "elision must reduce allocation: {} vs {}",
        cam_on.versions_created(),
        cam_off.versions_created()
    );
}
