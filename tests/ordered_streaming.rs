//! Streaming ordered-query tests: the skip list against a sequential `BTreeMap` model,
//! streaming iterators (`range_iter` / `successors_iter` / `iter`) against the collecting
//! `Vec` APIs on the same pinned view for all three ordered structures (under concurrent
//! writers), and the short-circuit regression for `AtomicRangeMap::find_if` /
//! `successors`: a probe predicate proves the defaults stop at the first hit instead of
//! materializing the whole range. On a skip list holding exactly the keys `1..=n`, the
//! Table-2 `range256` and succ16 queries must see their closed-form key counts, and a
//! streaming succ16 must beat materialize-and-sort by at least 5×.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use vcas_repro::structures::{
    run_query_on_view, AtomicRangeMap, ConcurrentMap, HarrisList, MapSnapshotView, Nbbst,
    QueryKind, SnapshotSource, VcasSkipList,
};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
    Successors(u64, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..64u64, 0..1000u64).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..64u64).prop_map(Op::Remove),
        (0..64u64).prop_map(Op::Get),
        (0..64u64, 0..16u64).prop_map(|(lo, span)| Op::Range(lo, lo + span)),
        (0..64u64, 0..8usize).prop_map(|(k, n)| Op::Successors(k, n)),
    ]
}

fn model_successors(model: &BTreeMap<u64, u64>, key: u64, count: usize) -> Vec<(u64, u64)> {
    model
        .range((Bound::Excluded(key), Bound::Unbounded))
        .take(count)
        .map(|(k, v)| (*k, *v))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn skiplist_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..250)) {
        let list = VcasSkipList::new_versioned_default();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let expected = !model.contains_key(&k);
                    if expected {
                        model.insert(k, v);
                    }
                    prop_assert_eq!(list.insert(k, v), expected);
                }
                Op::Remove(k) => {
                    let expected = model.remove(&k).is_some();
                    prop_assert_eq!(list.remove(k), expected);
                }
                Op::Get(k) => {
                    prop_assert_eq!(ConcurrentMap::get(&list, k), model.get(&k).copied());
                }
                Op::Range(lo, hi) => {
                    let expected: Vec<(u64, u64)> =
                        model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(AtomicRangeMap::range(&list, lo, hi), expected);
                }
                Op::Successors(k, n) => {
                    prop_assert_eq!(
                        AtomicRangeMap::successors(&list, k, n),
                        model_successors(&model, k, n)
                    );
                }
            }
        }
        // The streaming full iteration agrees with the model at the end as well.
        let view = list.snapshot_view();
        let streamed: Vec<(u64, u64)> = view.iter().collect();
        let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(streamed, expected);
    }
}

/// Pins views while two writers churn, and checks that on every pinned view the streaming
/// iterators observe exactly what the collecting `Vec` APIs report at the same timestamp.
fn assert_streaming_matches_collect_under_churn<S>(structure: Arc<S>, key_range: u64)
where
    S: AtomicRangeMap + 'static,
{
    for k in (1..key_range).step_by(2) {
        structure.insert(k, k);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let s = Arc::clone(&structure);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut x = 0x9E37u64.wrapping_add(w);
                while !stop.load(Ordering::Relaxed) {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let k = (x >> 32) % key_range;
                    if x & 1 == 0 {
                        s.insert(k, x);
                    } else {
                        s.remove(k);
                    }
                }
            })
        })
        .collect();

    for round in 0..24 {
        let view = structure.snapshot_view();
        let lo = (round * 7) % key_range;
        let hi = lo + key_range / 3;
        let streamed: Vec<(u64, u64)> = view.range_iter(lo, hi).collect();
        assert_eq!(streamed, view.range(lo, hi), "range_iter vs range in [{lo}, {hi}]");
        let succ: Vec<(u64, u64)> = view.successors_iter(lo).take(16).collect();
        assert_eq!(succ, view.successors(lo, 16), "successors_iter vs successors after {lo}");
        let all: Vec<(u64, u64)> = view.iter().collect();
        let mut sorted = all.clone();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        assert_eq!(all, sorted, "streaming iter is ordered");
        assert_eq!(all.len(), view.len(), "iter agrees with len");
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
}

#[test]
fn skiplist_streaming_matches_collect_under_concurrent_writers() {
    assert_streaming_matches_collect_under_churn(
        Arc::new(VcasSkipList::new_versioned_default()),
        2048,
    );
}

#[test]
fn bst_streaming_matches_collect_under_concurrent_writers() {
    assert_streaming_matches_collect_under_churn(Arc::new(Nbbst::new_versioned_default()), 2048);
}

#[test]
fn list_streaming_matches_collect_under_concurrent_writers() {
    assert_streaming_matches_collect_under_churn(
        Arc::new(HarrisList::new_versioned_default()),
        256,
    );
}

/// Regression test for the short-circuit bug in the `AtomicRangeMap` defaults: `find_if`
/// used to materialize the whole `[lo, hi)` range before applying the predicate, so a hit
/// on the very first key of a 10k-key map still visited all 10k entries. The streaming
/// defaults must invoke the predicate exactly once in that case.
fn assert_find_if_short_circuits<S: AtomicRangeMap>(map: &S, n: u64) {
    for k in 0..n {
        map.insert(k, k + 1);
    }
    let probes = AtomicUsize::new(0);
    let hit = map.find_if(0, n, &|k| {
        probes.fetch_add(1, Ordering::Relaxed);
        k == 0
    });
    assert_eq!(hit, Some((0, 1)), "{}: find_if missed the first key", map.name());
    assert_eq!(
        probes.load(Ordering::Relaxed),
        1,
        "{}: find_if visited more entries than the first hit",
        map.name()
    );

    // successors must pull exactly `count` items off the stream, not the whole tail.
    assert_eq!(map.successors(0, 3), vec![(1, 2), (2, 3), (3, 4)], "{}", map.name());
}

#[test]
fn find_if_on_first_key_of_10k_map_probes_once() {
    assert_find_if_short_circuits(&VcasSkipList::new_versioned_default(), 10_000);
    assert_find_if_short_circuits(&Nbbst::new_versioned_default(), 10_000);
    assert_find_if_short_circuits(&HarrisList::new_versioned_default(), 1_000);
}

/// A skip list holding exactly the keys `1..=n`, so every window's key count has a
/// closed form.
fn dense_skiplist(n: u64) -> VcasSkipList {
    let list = VcasSkipList::new_versioned_default();
    for k in 1..=n {
        list.insert(k, k);
    }
    list
}

#[test]
fn skiplist_range256_and_succ16_see_closed_form_counts() {
    let n = 2_000u64;
    let list = dense_skiplist(n);
    let view = list.view();
    for anchor in 1..=n {
        let out = run_query_on_view(&view, QueryKind::Range256, anchor, n);
        let expected = n.min(anchor.saturating_add(256)) - anchor + 1;
        assert_eq!(out.observed as u64, expected, "range256 at {anchor}: wrong key count");
        let succ16 = view.successors_iter(anchor).take(16).count() as u64;
        assert_eq!(succ16, (n - anchor).min(16), "succ16 after {anchor}: wrong key count");
    }
}

/// Queries per second of a succ16 query cycled over the anchors of `1..=n` for `window`,
/// answered by `succ16`; every answer's key count is checked.
fn succ16_qps(n: u64, window: Duration, succ16: impl Fn(u64) -> usize) -> f64 {
    let start = Instant::now();
    let mut queries = 0u64;
    let mut anchor = 1u64;
    loop {
        anchor = anchor % n + 1;
        assert_eq!(succ16(anchor) as u64, (n - anchor).min(16), "succ16 after {anchor}");
        queries += 1;
        if start.elapsed() >= window {
            return queries as f64 / start.elapsed().as_secs_f64();
        }
    }
}

/// The same succ16 query on one reused view, answered by the streaming iterator (seek +
/// 16 yields) and the way an unordered view must: materialize the whole view, sort, cut
/// the window. Streaming must win by at least 5× where the asymptotics can show
/// (`n >= 512`); the measured gap is ten times that bound or more. Each side keeps its
/// best of three alternating windows, so a burst of host load on one window cannot
/// decide it.
#[test]
fn streaming_succ16_beats_sort_over_iter_fivefold() {
    let n = 2_000u64;
    let list = dense_skiplist(n);
    let view = list.view();
    let window = Duration::from_millis(60);
    let (mut streaming, mut sorted) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        streaming = streaming
            .max(succ16_qps(n, window, |anchor| view.successors_iter(anchor).take(16).count()));
        sorted = sorted.max(succ16_qps(n, window, |anchor| {
            let mut all: Vec<(u64, u64)> = MapSnapshotView::iter(&view).collect();
            all.sort_unstable_by_key(|&(k, _)| k);
            all.iter().filter(|&&(k, _)| k > anchor).take(16).count()
        }));
    }
    assert!(
        streaming >= 5.0 * sorted,
        "streaming ordered scans not faster than the sort-over-iter fallback: \
         {streaming:.0} vs {sorted:.0} queries/s"
    );
}
