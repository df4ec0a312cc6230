//! View-atomicity tests for the reified snapshot API: a long-lived pinned view must be
//! *frozen* — every answer it gives is the state at its timestamp, no matter how much the
//! structure mutates (or truncates version lists) afterwards — and two views opened from
//! one `CameraGroup` snapshot must observe a single common timestamp across *different*
//! structures (the cross-structure conservation property).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use vcas_repro::core::Camera;
use vcas_repro::structures::traits::{Key, Value};
use vcas_repro::structures::view::{
    GroupQueryExt, MapSnapshotView, SnapshotSource, StructureGroup,
};
use vcas_repro::structures::{AtomicRangeMap, Nbbst, VcasHashMap};

/// A pinned view's answers never change while two writer threads mutate the tree and
/// version lists are truncated under it.
#[test]
fn pinned_view_answers_are_frozen_under_writers() {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    for k in 0..400u64 {
        tree.insert(k, k * 7);
    }

    let view = tree.view();
    let frozen_scan = view.iter().collect::<Vec<_>>();
    let frozen_range = view.range(100, 199);
    let frozen_gets = view.multi_get(&[0, 57, 399, 1000]);
    assert_eq!(frozen_scan.len(), 400);
    assert_eq!(frozen_range.len(), 100);
    assert_eq!(frozen_gets, vec![Some(0), Some(57 * 7), Some(399 * 7), None]);

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|t| {
            let tree = tree.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xF00D + t);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.gen_range(0..1200u64);
                    if rng.gen_bool(0.5) {
                        tree.insert(k, k);
                    } else {
                        tree.remove(k);
                    }
                }
            })
        })
        .collect();

    for round in 0..60 {
        assert_eq!(
            view.iter().collect::<Vec<_>>(),
            frozen_scan,
            "round {round}: scan changed under writers"
        );
        assert_eq!(view.range(100, 199), frozen_range, "round {round}: range changed");
        assert_eq!(view.multi_get(&[0, 57, 399, 1000]), frozen_gets, "round {round}");
        assert_eq!(view.len(), 400, "round {round}: len changed");
        // Truncate version lists mid-flight: the pin must protect every version the view
        // still needs.
        tree.collect_versions();
    }

    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    // Still frozen after the writers are gone...
    assert_eq!(view.iter().collect::<Vec<_>>(), frozen_scan);
    drop(view);
    assert_eq!(camera.pinned_count(), 0, "dropping the view releases its pin");
}

const TOKENS: u64 = 64;
const MOVERS: u64 = 2;

/// Two views from one `CameraGroup::snapshot()` agree on a cross-structure invariant:
/// tokens moved between a hash map and a BST sharing the camera are conserved.
///
/// Each mover thread owns the tokens `t mod MOVERS` and repeatedly moves them between the
/// "hot" hash map and the "cold" BST (remove from one, insert into the other), so at any
/// single timestamp a token is in at most one structure and at most `MOVERS` tokens are in
/// flight. A reader mixing two timestamps (e.g. two separately taken snapshots) would see
/// double-counted or over-lost tokens; the group snapshot must never.
#[test]
fn group_views_conserve_tokens_across_structures() {
    let camera = Camera::new();
    let hot = Arc::new(VcasHashMap::new_versioned(&camera, 32));
    let cold = Arc::new(Nbbst::new_versioned(&camera));
    for token in 0..TOKENS {
        assert!(hot.insert(token, token + 1_000));
    }

    let mut group: StructureGroup = StructureGroup::new(camera.clone());
    let hot_idx = group.register(hot.clone() as Arc<dyn SnapshotSource>).unwrap();
    let cold_idx = group.register(cold.clone() as Arc<dyn SnapshotSource>).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let movers: Vec<_> = (0..MOVERS)
        .map(|t| {
            let (hot, cold) = (hot.clone(), cold.clone());
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut in_hot = true;
                while !stop.load(Ordering::Relaxed) {
                    for token in (t..TOKENS).step_by(MOVERS as usize) {
                        if in_hot {
                            assert!(hot.remove(token));
                            assert!(cold.insert(token, token + 1_000));
                        } else {
                            assert!(cold.remove(token));
                            assert!(hot.insert(token, token + 1_000));
                        }
                    }
                    in_hot = !in_hot;
                }
            })
        })
        .collect();

    for round in 0..300 {
        let snap = group.snapshot();
        let hot_view = snap.view_of(hot_idx);
        let cold_view = snap.view_of(cold_idx);
        assert_eq!(
            hot_view.timestamp(),
            cold_view.timestamp(),
            "round {round}: group views must share one timestamp"
        );
        assert_eq!(hot_view.timestamp(), Some(snap.handle()));

        // Count + value-sum conservation at the shared timestamp.
        let mut seen = 0u64;
        let mut value_sum = 0u64;
        for token in 0..TOKENS {
            let in_hot = hot_view.get(token);
            let in_cold = cold_view.get(token);
            assert!(
                in_hot.is_none() || in_cold.is_none(),
                "round {round}: token {token} observed in both structures at one timestamp"
            );
            if let Some(v) = in_hot.or(in_cold) {
                assert_eq!(v, token + 1_000);
                seen += 1;
                value_sum += v;
            }
        }
        assert!(
            (TOKENS - MOVERS..=TOKENS).contains(&seen),
            "round {round}: {seen} of {TOKENS} tokens visible — more than {MOVERS} in flight"
        );
        // The len()s of the two views agree with the per-token count.
        assert_eq!(hot_view.len() + cold_view.len(), seen as usize, "round {round}");
        // Sum of moved values is conserved up to the in-flight tokens.
        let full_sum: u64 = (0..TOKENS).map(|t| t + 1_000).sum();
        assert!(value_sum <= full_sum, "round {round}: duplicated value observed");
    }

    stop.store(true, Ordering::Relaxed);
    for m in movers {
        m.join().unwrap();
    }
    assert_eq!(camera.pinned_count(), 0, "group snapshots release their pins");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Sequential model check: a view opened mid-way through an operation sequence keeps
    /// answering with the mid-way state, while the structure itself moves on. (This doc
    /// comment doubles as a regression check: the vendored `proptest!` macro used to
    /// recurse infinitely on doc-commented fns inside the block.)
    #[test]
    fn view_is_a_point_in_time_copy_of_the_model(
        before in proptest::collection::vec((0..2u8, 1..64u64, 0..1000u64), 0..200),
        after in proptest::collection::vec((0..2u8, 1..64u64, 0..1000u64), 0..200),
    ) {
        let tree = Nbbst::new_versioned_default();
        let mut model = std::collections::BTreeMap::<Key, Value>::new();
        for (op, k, v) in before {
            if op == 0 {
                tree.insert(k, v);
                model.entry(k).or_insert(v);
            } else {
                tree.remove(k);
                model.remove(&k);
            }
        }
        let view = tree.view();
        let at_view: Vec<(Key, Value)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        for (op, k, v) in after {
            if op == 0 { tree.insert(k, v); } else { tree.remove(k); }
        }
        // The view still answers with the mid-way state...
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), at_view.clone());
        prop_assert_eq!(view.len(), at_view.len());
        for &(k, v) in &at_view {
            prop_assert_eq!(view.get(k), Some(v));
        }
        // ...and a fresh view answers with the current state.
        let now: Vec<(Key, Value)> = tree.view().iter().collect::<Vec<_>>();
        prop_assert_eq!(now, tree.range(0, u64::MAX));
    }
}
