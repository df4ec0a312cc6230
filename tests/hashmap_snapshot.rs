//! Snapshot-semantics tests for the vCAS hash map: `multi_get` and a view's `iter` must
//! observe a *single* timestamp — no torn reads — no matter how many writers are mutating
//! the table concurrently.
//!
//! The single-timestamp property is made observable by giving each writer its own disjoint
//! key set, which it inserts in ascending order and then removes in ascending order. At any
//! one timestamp the live subset of a writer's keys is therefore a *contiguous window* of
//! its sequence; a reader that mixes state from two timestamps (as a non-atomic iterator
//! would) sees a hole or a stale straggler instead. Each test runs with at least two
//! writers, per the acceptance criteria.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use vcas_repro::core::{Camera, ReclaimPolicy};
use vcas_repro::structures::traits::{Key, SnapshotMap, Value};
use vcas_repro::structures::{MapSnapshotView, VcasHashMap};

const WRITERS: u64 = 2;
/// Keys owned by writer `w`: `w * STRIDE + 1 ..= w * STRIDE + KEYS_PER_WRITER`.
const STRIDE: u64 = 1 << 32;
const KEYS_PER_WRITER: u64 = 1_500;

fn writer_keys(w: u64) -> impl Iterator<Item = Key> {
    (1..=KEYS_PER_WRITER).map(move |i| w * STRIDE + i)
}

/// Asserts that the visible subset of one writer's ordered key sequence is a contiguous
/// window (the signature of a single-timestamp read; see module docs).
fn assert_contiguous_window(visible: &[bool], context: &str) {
    let first = visible.iter().position(|&v| v);
    let last = visible.iter().rposition(|&v| v);
    if let (Some(first), Some(last)) = (first, last) {
        let hole = (first..=last).find(|&i| !visible[i]);
        assert!(
            hole.is_none(),
            "{context}: torn read — key index {} invisible between visible {} and {}",
            hole.unwrap(),
            first,
            last
        );
    }
}

/// Runs `observe` repeatedly against a table being filled and drained by `WRITERS` writer
/// threads; `observe` returns, per writer, the visibility vector of that writer's keys.
fn drive_concurrent_observations(
    buckets: usize,
    seed_note: &str,
    observe: impl Fn(&VcasHashMap) -> Vec<Vec<bool>> + Send + 'static,
) {
    let camera = Camera::new();
    let map = Arc::new(VcasHashMap::new_versioned(&camera, buckets));
    // Writers truncate as they go, so snapshot reads race truncation on the bucket cells.
    camera.register_collectible(&map);
    ReclaimPolicy::Amortized { every_n_updates: 64, budget: 128 }.install(&camera);
    let done = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..WRITERS {
        let map = map.clone();
        writers.push(std::thread::spawn(move || {
            for k in writer_keys(w) {
                assert!(map.insert(k, k), "fresh key {k} must insert");
            }
            for k in writer_keys(w) {
                assert!(map.remove(k), "inserted key {k} must remove");
            }
        }));
    }
    let observer = {
        let map = map.clone();
        let done = done.clone();
        let seed_note = seed_note.to_string();
        std::thread::spawn(move || {
            let mut checks = 0u32;
            // Keep observing as long as the writers run, with a floor so the test still
            // checks something if the writers finish before the observer warms up.
            while !done.load(Ordering::Relaxed) || checks < 20 {
                for (w, visible) in observe(&map).into_iter().enumerate() {
                    assert_eq!(visible.len(), KEYS_PER_WRITER as usize);
                    assert_contiguous_window(&visible, &format!("writer {w} ({seed_note})"));
                }
                checks += 1;
            }
        })
    };
    for h in writers {
        h.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    observer.join().unwrap();
    assert!(map.view().is_empty(), "writers drained every key they inserted");
}

proptest! {
    // Each case spins up real threads; a handful of cases over different table shapes is
    // plenty (and keeps the suite fast on the 1-core CI runner).
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    #[test]
    fn multi_get_observes_a_single_timestamp(bucket_bits in 0..8usize) {
        let buckets = 1usize << bucket_bits;
        drive_concurrent_observations(buckets, &format!("buckets={buckets}"), |map| {
            // One multi_get spanning every writer's full key set, then split per writer.
            let keys: Vec<Key> = (0..WRITERS).flat_map(writer_keys).collect();
            let results = SnapshotMap::multi_get(map, &keys);
            results
                .chunks(KEYS_PER_WRITER as usize)
                .map(|chunk| chunk.iter().map(|r| r.is_some()).collect())
                .collect()
        });
    }

    #[test]
    fn snapshot_iter_observes_a_single_timestamp(bucket_bits in 0..8usize) {
        let buckets = 1usize << bucket_bits;
        drive_concurrent_observations(buckets, &format!("buckets={buckets}"), |map| {
            let mut visible = vec![vec![false; KEYS_PER_WRITER as usize]; WRITERS as usize];
            for (k, v) in map.view().iter() {
                let (w, i) = (k / STRIDE, k % STRIDE - 1);
                assert_eq!(v, k, "value stored with {k} must round-trip");
                visible[w as usize][i as usize] = true;
            }
            visible
        });
    }

    #[test]
    fn sequential_ops_match_model_and_queries_agree(
        ops in proptest::collection::vec((0..3u8, 1..48u64, 0..1000u64), 1..400),
        bucket_bits in 0..6usize,
    ) {
        let map = VcasHashMap::new_versioned(&Camera::new(), 1usize << bucket_bits);
        let mut model = std::collections::HashMap::<Key, Value>::new();
        for (op, k, v) in ops {
            match op {
                0 => {
                    let expected = !model.contains_key(&k);
                    prop_assert_eq!(map.insert(k, v), expected);
                    model.entry(k).or_insert(v);
                }
                1 => prop_assert_eq!(map.remove(k), model.remove(&k).is_some()),
                _ => prop_assert_eq!(map.get(k), model.get(&k).copied()),
            }
        }
        // multi_get and the view's iter agree with the model (and with each other).
        let keys: Vec<Key> = (1..48u64).collect();
        let expected: Vec<Option<Value>> = keys.iter().map(|k| model.get(k).copied()).collect();
        prop_assert_eq!(SnapshotMap::multi_get(&map, &keys), expected);
        let mut scanned: Vec<(Key, Value)> = map.view().iter().collect();
        scanned.sort_unstable();
        let mut modeled: Vec<(Key, Value)> = model.into_iter().collect();
        modeled.sort_unstable();
        prop_assert_eq!(scanned, modeled);
    }
}
