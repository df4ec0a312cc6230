//! Differential test of the multi-point query surface: every `AtomicRangeMap` contender
//! answers `range`, `find_if`, `successors`, `multi_get` and a view's `len` exactly as a
//! `BTreeMap` does, on edge arguments — `lo > hi`, 0, `MAX_KEY`, `Key::MAX - 1`,
//! `Key::MAX`, and a `count` of 0 — with the two largest legal keys stored next to the
//! tree's sentinels. The structures are quiescent, so every answer is deterministic.

use std::collections::BTreeMap;
use std::ops::Bound;

use vcas_repro::structures::traits::{Key, Value, MAX_KEY};
use vcas_repro::structures::{
    AtomicRangeMap, DcBst, HarrisList, LockBst, LockHashMap, Nbbst, VcasHashMap, VcasSkipList,
};

fn contenders() -> Vec<(&'static str, Box<dyn AtomicRangeMap>)> {
    vec![
        ("VcasList", Box::new(HarrisList::new_versioned_default())),
        ("HarrisList", Box::new(HarrisList::new_plain())),
        ("VcasBST", Box::new(Nbbst::new_versioned_default())),
        ("BST", Box::new(Nbbst::new_plain())),
        ("VcasSkipList", Box::new(VcasSkipList::new_versioned_default())),
        ("VcasHashMap", Box::new(VcasHashMap::new_versioned_default())),
        ("DcBst", Box::new(DcBst::new())),
        ("LockBst", Box::new(LockBst::new())),
        ("LockHashMap", Box::new(LockHashMap::new())),
    ]
}

/// Query arguments at and around the edges of the key space and of the stored keys.
const EDGES: [Key; 9] = [0, 1, 2, 5, 10, 11, MAX_KEY, Key::MAX - 1, Key::MAX];

fn model_range(model: &BTreeMap<Key, Value>, lo: Key, hi: Key) -> Vec<(Key, Value)> {
    if lo > hi {
        return Vec::new();
    }
    model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
}

fn model_find_if(
    model: &BTreeMap<Key, Value>,
    lo: Key,
    hi: Key,
    pred: &dyn Fn(Key) -> bool,
) -> Option<(Key, Value)> {
    if lo >= hi {
        return None;
    }
    model.range(lo..hi).map(|(&k, &v)| (k, v)).find(|&(k, _)| pred(k))
}

fn model_successors(model: &BTreeMap<Key, Value>, key: Key, count: usize) -> Vec<(Key, Value)> {
    model
        .range((Bound::Excluded(key), Bound::Unbounded))
        .take(count)
        .map(|(&k, &v)| (k, v))
        .collect()
}

fn assert_matches_model(name: &str, map: &dyn AtomicRangeMap, model: &BTreeMap<Key, Value>) {
    let preds: [(&str, &dyn Fn(Key) -> bool); 3] =
        [("any", &|_| true), ("even", &|k| k % 2 == 0), ("none", &|_| false)];
    for lo in EDGES {
        for hi in EDGES {
            assert_eq!(map.range(lo, hi), model_range(model, lo, hi), "{name}: range({lo}, {hi})");
            for (label, pred) in preds {
                assert_eq!(
                    map.find_if(lo, hi, pred),
                    model_find_if(model, lo, hi, pred),
                    "{name}: find_if({lo}, {hi}, {label})"
                );
            }
        }
        for count in [0, 1, 3, 100] {
            assert_eq!(
                map.successors(lo, count),
                model_successors(model, lo, count),
                "{name}: successors({lo}, {count})"
            );
        }
    }
    let view = map.snapshot_view();
    let expected: Vec<Option<Value>> = EDGES.iter().map(|k| model.get(k).copied()).collect();
    assert_eq!(view.multi_get(&EDGES), expected, "{name}: multi_get(edges)");
    assert_eq!(view.multi_get(&[]), Vec::<Option<Value>>::new(), "{name}: multi_get([])");
    assert_eq!(
        view.multi_get(&[5, 5, 0]),
        vec![model.get(&5).copied(), model.get(&5).copied(), model.get(&0).copied()],
        "{name}: multi_get with repeats"
    );
    assert_eq!(view.len(), model.len(), "{name}: view len");
    assert_eq!(view.is_empty(), model.is_empty(), "{name}: view is_empty");
}

#[test]
fn every_contender_matches_a_btreemap_on_edge_arguments() {
    for (name, map) in contenders() {
        let mut model = BTreeMap::new();
        assert_matches_model(name, map.as_ref(), &model);
        for k in (1..=10).chain([MAX_KEY - 1, MAX_KEY]) {
            assert!(map.insert(k, k.wrapping_mul(10)), "{name}: insert({k})");
            model.insert(k, k.wrapping_mul(10));
        }
        assert_matches_model(name, map.as_ref(), &model);
        // Removes 1, 2, 5, 10 and MAX_KEY; every other edge is absent (for the tree, a
        // sentinel).
        for k in EDGES {
            assert_eq!(map.remove(k), model.remove(&k).is_some(), "{name}: remove({k})");
        }
        assert_matches_model(name, map.as_ref(), &model);
    }
}
