//! The multithreaded throughput driver.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vcas_core::reclaim::{Collectible, VersionStats};
use vcas_core::{Camera, RetentionError};
use vcas_structures::queries::{run_cross_query, run_query_on_view, CrossQueryKind, QueryKind};
use vcas_structures::traits::{AtomicRangeMap, Key, SnapshotMap};
use vcas_structures::view::{GroupQueryExt, MapSnapshotView, SnapshotSource, StructureGroup};
use vcas_structures::{Nbbst, QueryCache, VcasHashMap, VcasSkipList};

use crate::spec::{
    ComposedScenario, HashMapScenario, ReclaimScenario, SkipListScenario, TimeTravelMode,
    TimeTravelScenario, WorkloadSpec,
};

/// Result of a timed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughput {
    /// Completed operations.
    pub operations: u64,
    /// Length of the timed window.
    pub elapsed: Duration,
}

impl Throughput {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.operations as f64 / self.elapsed.as_secs_f64()
    }

    /// Millions of operations per second (the unit of the paper's figures).
    pub fn mops(&self) -> f64 {
        self.ops_per_sec() / 1.0e6
    }
}

/// Result of a run with dedicated update and range-query thread pools (Figs. 2g–2k).
#[derive(Debug, Clone, Copy)]
pub struct DedicatedResult {
    /// Throughput of the update threads (inserts + deletes).
    pub updates: Throughput,
    /// Throughput of the range-query threads (queries completed, not keys returned).
    pub range_queries: Throughput,
}

/// Prefills `map` to `initial_size` distinct keys drawn uniformly from the key universe.
/// (Uniform regardless of `spec.skew`: prefill's job is reaching the target size, which a
/// heavily skewed draw would make quadratically slow.)
pub fn prefill(map: &dyn AtomicRangeMap, spec: &WorkloadSpec) {
    prefill_with(|k, v| map.insert(k, v), spec);
}

/// Prefill against any insert function (shared between the ordered-map and hash-map runs;
/// `dyn AtomicRangeMap` cannot be passed where `dyn ConcurrentMap` is expected without
/// trait upcasting, which our MSRV predates).
fn prefill_with(mut insert: impl FnMut(Key, u64) -> bool, spec: &WorkloadSpec) {
    let key_range = spec.key_range();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9E3779B97F4A7C15);
    let mut inserted = 0;
    while inserted < spec.initial_size {
        let k = rng.gen_range(1..=key_range);
        if insert(k, k) {
            inserted += 1;
        }
    }
}

/// Drains the default EBR domain, retrying (bounded) around transient pins: other tests
/// in the same process may briefly pin the shared domain, which makes a single
/// [`vcas_ebr::drain`] give up with work still pending. Returns the final pending count
/// (0 = fully settled).
fn drain_ebr_settled() -> usize {
    for _ in 0..2_000 {
        if vcas_ebr::drain() == 0 {
            return 0;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    vcas_ebr::drain()
}

/// A closed-loop worker's main loop: runs `op` until `stop` is raised. The flag is checked
/// *after* each call, so every worker completes at least one operation — a timed window
/// that closes before a worker is first scheduled (a short window on a loaded host) still
/// measures work instead of reporting zero throughput.
fn until_stopped(stop: &AtomicBool, mut op: impl FnMut()) {
    loop {
        op();
        if stop.load(Ordering::Relaxed) {
            return;
        }
    }
}

/// Joins a worker, converting a worker panic into one that names the spec's seed so the
/// failing run can be reproduced.
fn join_worker<T>(handle: std::thread::JoinHandle<T>, spec: &WorkloadSpec) -> T {
    handle.join().unwrap_or_else(|_| {
        panic!("workload worker thread panicked (reproduce with seed={:#x})", spec.seed)
    })
}

/// Runs the paper's mixed workload (§7 "Workload"): every thread repeatedly draws an
/// operation from the mix and a uniformly random key. Returns aggregate throughput.
pub fn run_mixed(map: Arc<dyn AtomicRangeMap>, spec: &WorkloadSpec) -> Throughput {
    prefill(map.as_ref(), spec);
    let key_range = spec.key_range();
    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..spec.threads {
        let map = map.clone();
        let stop = stop.clone();
        let total_ops = total_ops.clone();
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(spec.seed + t as u64);
            let mut ops = 0u64;
            until_stopped(&stop, || {
                let key = spec.skew.sample(&mut rng, key_range);
                let dice = rng.gen_range(0..100u32);
                if dice < spec.mix.insert {
                    map.insert(key, key);
                } else if dice < spec.mix.insert + spec.mix.delete {
                    map.remove(key);
                } else if dice < spec.mix.insert + spec.mix.delete + spec.mix.range {
                    let hi = key.saturating_add(spec.range_size).min(key_range);
                    std::hint::black_box(map.range(key, hi));
                } else {
                    std::hint::black_box(map.contains(key));
                }
                ops += 1;
            });
            total_ops.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(Duration::from_millis(spec.duration_ms));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        join_worker(h, spec);
    }
    let elapsed = start.elapsed();
    vcas_ebr::flush();
    Throughput { operations: total_ops.load(Ordering::Relaxed), elapsed }
}

/// Runs the `hashmap` scenario: the mixed workload of [`run_mixed`], but against a
/// [`SnapshotMap`], with the range-query slot of the mix replaced by an atomic
/// `multi_get` of `scenario.multi_get_batch` keys (each drawn from `spec.skew`, like
/// every other operation key). Returns aggregate throughput.
pub fn run_hashmap(
    map: Arc<dyn SnapshotMap>,
    spec: &WorkloadSpec,
    scenario: &HashMapScenario,
) -> Throughput {
    prefill_with(|k, v| map.insert(k, v), spec);
    let key_range = spec.key_range();
    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..spec.threads {
        let map = map.clone();
        let stop = stop.clone();
        let total_ops = total_ops.clone();
        let spec = spec.clone();
        let batch = scenario.multi_get_batch.max(1);
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(spec.seed + t as u64);
            let mut keys = vec![0 as Key; batch];
            let mut ops = 0u64;
            until_stopped(&stop, || {
                let key = spec.skew.sample(&mut rng, key_range);
                let dice = rng.gen_range(0..100u32);
                if dice < spec.mix.insert {
                    map.insert(key, key);
                } else if dice < spec.mix.insert + spec.mix.delete {
                    map.remove(key);
                } else if dice < spec.mix.insert + spec.mix.delete + spec.mix.range {
                    keys[0] = key;
                    for slot in keys.iter_mut().skip(1) {
                        *slot = spec.skew.sample(&mut rng, key_range);
                    }
                    std::hint::black_box(map.multi_get(&keys));
                } else {
                    std::hint::black_box(map.get(key));
                }
                ops += 1;
            });
            total_ops.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(Duration::from_millis(spec.duration_ms));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        join_worker(h, spec);
    }
    let elapsed = start.elapsed();
    vcas_ebr::flush();
    Throughput { operations: total_ops.load(Ordering::Relaxed), elapsed }
}

/// Runs the dedicated-thread experiment of Figs. 2g–2k: `update_threads` threads perform 50%
/// inserts / 50% deletes while `rq_threads` threads repeatedly execute range queries of
/// `spec.range_size` keys. Reports the two throughputs separately.
pub fn run_dedicated(
    map: Arc<dyn AtomicRangeMap>,
    spec: &WorkloadSpec,
    update_threads: usize,
    rq_threads: usize,
) -> DedicatedResult {
    prefill(map.as_ref(), spec);
    let key_range = spec.key_range();
    let stop = Arc::new(AtomicBool::new(false));
    let update_ops = Arc::new(AtomicU64::new(0));
    let rq_ops = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..update_threads {
        let map = map.clone();
        let stop = stop.clone();
        let update_ops = update_ops.clone();
        let seed = spec.seed + t as u64;
        let skew = spec.skew;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ops = 0u64;
            until_stopped(&stop, || {
                let key = skew.sample(&mut rng, key_range);
                if rng.gen_bool(0.5) {
                    map.insert(key, key);
                } else {
                    map.remove(key);
                }
                ops += 1;
            });
            update_ops.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    for t in 0..rq_threads {
        let map = map.clone();
        let stop = stop.clone();
        let rq_ops = rq_ops.clone();
        let seed = spec.seed + 1000 + t as u64;
        let range_size = spec.range_size;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ops = 0u64;
            until_stopped(&stop, || {
                let lo: Key = rng.gen_range(1..=key_range.saturating_sub(range_size).max(1));
                std::hint::black_box(map.range(lo, lo + range_size));
                ops += 1;
            });
            rq_ops.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(Duration::from_millis(spec.duration_ms));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        join_worker(h, spec);
    }
    let elapsed = start.elapsed();
    vcas_ebr::flush();
    DedicatedResult {
        updates: Throughput { operations: update_ops.load(Ordering::Relaxed), elapsed },
        range_queries: Throughput { operations: rq_ops.load(Ordering::Relaxed), elapsed },
    }
}

/// Result of a `composed` scenario run (see [`run_composed`]).
#[derive(Debug, Clone, Copy)]
pub struct ComposedResult {
    /// Throughput of the update threads (inserts + deletes across both structures).
    pub updates: Throughput,
    /// Throughput of the query threads, counted in *individual* queries (each composed
    /// sub-query and each cross-structure query is one operation).
    pub queries: Throughput,
    /// Number of group snapshots taken — i.e. how many view batches the query throughput
    /// was amortized over.
    pub snapshots: u64,
}

/// Runs the `composed` scenario: view-driven query execution against an [`Nbbst`] and a
/// [`VcasHashMap`] that share one camera, under concurrent updaters.
///
/// `update_threads` threads perform 50% inserts / 50% deletes, alternating between the
/// two structures; `query_threads` threads repeatedly take **one group snapshot**
/// ([`StructureGroup::snapshot`]), open one view per structure at the shared timestamp,
/// and run `scenario.queries_per_view` Table-2 sub-queries on the tree view
/// ([`QueryKind::Composed`]) plus `scenario.cross_per_snapshot` cross-structure queries
/// ([`CrossQueryKind`]) over both views — so the snapshot and EBR pin are amortized over
/// the whole batch.
///
/// Panics if the structures are unversioned or do not share a camera.
pub fn run_composed(
    tree: Arc<Nbbst>,
    map: Arc<VcasHashMap>,
    spec: &WorkloadSpec,
    scenario: &ComposedScenario,
    update_threads: usize,
    query_threads: usize,
) -> ComposedResult {
    let camera = tree.camera().expect("composed scenario needs a versioned BST").clone();
    let mut group: StructureGroup = StructureGroup::new(camera);
    let tree_idx = group
        .register(tree.clone() as Arc<dyn SnapshotSource>)
        .expect("tree must share the group camera");
    let map_idx = group
        .register(map.clone() as Arc<dyn SnapshotSource>)
        .expect("composed scenario needs tree and hash map on one camera");
    let group = Arc::new(group);

    // Prefill each structure to half the target size (distinct seeds so the two halves
    // draw different key sets).
    let half_spec = WorkloadSpec { initial_size: spec.initial_size / 2, ..spec.clone() };
    prefill(tree.as_ref(), &half_spec);
    prefill_with(|k, v| map.insert(k, v), &half_spec.clone().with_seed(spec.seed ^ 0x5EED));

    let key_range = spec.key_range();
    let stop = Arc::new(AtomicBool::new(false));
    let update_ops = Arc::new(AtomicU64::new(0));
    let query_ops = Arc::new(AtomicU64::new(0));
    let snapshots = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..update_threads {
        let (tree, map) = (tree.clone(), map.clone());
        let stop = stop.clone();
        let update_ops = update_ops.clone();
        let seed = spec.seed + t as u64;
        let skew = spec.skew;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ops = 0u64;
            until_stopped(&stop, || {
                let key = skew.sample(&mut rng, key_range);
                let target_tree = rng.gen_bool(0.5);
                let insert = rng.gen_bool(0.5);
                match (target_tree, insert) {
                    (true, true) => drop(tree.insert(key, key)),
                    (true, false) => drop(tree.remove(key)),
                    (false, true) => drop(map.insert(key, key)),
                    (false, false) => drop(map.remove(key)),
                }
                ops += 1;
            });
            update_ops.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    for t in 0..query_threads {
        let group = group.clone();
        let stop = stop.clone();
        let query_ops = query_ops.clone();
        let snapshots = snapshots.clone();
        let seed = spec.seed + 2000 + t as u64;
        let scenario = *scenario;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut ops, mut snaps) = (0u64, 0u64);
            until_stopped(&stop, || {
                let anchor = rng.gen_range(1..=key_range);
                let snap = group.snapshot();
                let tree_view = snap.view_of(tree_idx);
                let map_view = snap.view_of(map_idx);
                std::hint::black_box(run_query_on_view(
                    tree_view.as_ref(),
                    QueryKind::Composed { n: scenario.queries_per_view },
                    anchor,
                    key_range,
                ));
                for i in 0..scenario.cross_per_snapshot {
                    let kinds = CrossQueryKind::all();
                    std::hint::black_box(run_cross_query(
                        map_view.as_ref(),
                        tree_view.as_ref(),
                        kinds[i % kinds.len()],
                        anchor,
                        key_range,
                    ));
                }
                ops += (scenario.queries_per_view + scenario.cross_per_snapshot) as u64;
                snaps += 1;
            });
            query_ops.fetch_add(ops, Ordering::Relaxed);
            snapshots.fetch_add(snaps, Ordering::Relaxed);
        }));
    }
    std::thread::sleep(Duration::from_millis(spec.duration_ms));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        join_worker(h, spec);
    }
    let elapsed = start.elapsed();
    vcas_ebr::flush();
    ComposedResult {
        updates: Throughput { operations: update_ops.load(Ordering::Relaxed), elapsed },
        queries: Throughput { operations: query_ops.load(Ordering::Relaxed), elapsed },
        snapshots: snapshots.load(Ordering::Relaxed),
    }
}

/// Result of a `reclaim` scenario run (see [`run_reclaim`]).
#[derive(Debug, Clone, Copy)]
pub struct ReclaimResult {
    /// Throughput of the update threads (inserts + deletes).
    pub updates: Throughput,
    /// Version nodes retired over the whole run, including the final quiescence sweep
    /// (from [`Camera::versions_retired`]).
    pub versions_retired: u64,
    /// Version nodes retired *before* the final quiescence sweep — i.e. by the installed
    /// policy's own drivers while the run (and its pin) was live. Zero under
    /// [`vcas_core::ReclaimPolicy::Disabled`]; positive when the amortized hooks or the
    /// background collector actually ran. (With the reader pinned at the window's start,
    /// this is history below the pin — mostly prefill-era versions.)
    pub versions_retired_during_run: u64,
    /// Per-cell version-list statistics *while the reader's pin was still held* (versions
    /// above the pin's timestamp legitimately accumulate here).
    pub stats_while_pinned: VersionStats,
    /// Per-cell version-list statistics after the pin dropped and collection reached
    /// quiescence — the driver asserts `max_versions_per_cell` is bounded by a small
    /// constant here.
    pub stats_after_drop: VersionStats,
    /// Data-structure nodes retired through the version-reference protocol over the run
    /// (from [`Camera::nodes_retired`]); positive whenever churn unlinked nodes and
    /// truncation cut their last version references.
    pub nodes_retired: u64,
    /// [`Camera::approx_live_versions`] after the pin dropped, collection reached
    /// quiescence, and the EBR domain drained: one version per cell of the surviving
    /// tree.
    pub live_versions_after_quiescence: u64,
    /// [`Camera::approx_live_nodes`] at the same point. The driver asserts this equals
    /// the node count of the surviving tree exactly (`2·len + 3` for the leaf-oriented
    /// BST) — i.e. *zero* unlinked nodes outlive their last version reference.
    pub live_nodes_after_quiescence: u64,
    /// Version-node slots allocated over the run ([`Camera::versions_created`]); elided
    /// updates reuse their displaced head's slot and do not count here.
    pub versions_created: u64,
    /// Successful CASes whose displaced head was elided at publication time
    /// ([`Camera::versions_elided`]). With the reader pinned once at the window's start,
    /// the whole churn window shares one timestamp, so this dominates the update count.
    pub versions_elided: u64,
}

/// Runs the `reclaim` scenario: `spec.threads` update-heavy writers (50% inserts / 50%
/// deletes) hammer a versioned [`Nbbst`] registered with its camera for automatic
/// reclamation under `scenario.policy`, while **one long-pinned reader** (the driver
/// thread) holds a snapshot view open across the whole timed window.
///
/// The driver asserts, panicking with the spec's seed on violation:
///
/// * the pinned view answers every re-validation with its exact frozen state (reads at its
///   timestamp never change, no matter how much is truncated around it);
/// * after the pin drops and a quiescence sweep completes, every cell's version list has
///   collapsed to a small constant — i.e. the run did not leak version history.
pub fn run_reclaim(spec: &WorkloadSpec, scenario: &ReclaimScenario) -> ReclaimResult {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    camera.register_collectible(&tree);
    let collector = scenario.policy.install(&camera);
    prefill(tree.as_ref(), spec);
    let key_range = spec.key_range();
    // Deepen the prefill history across one camera advance: reinstall the live keys at a
    // *new* timestamp (insert is insert-if-absent, so remove first), leaving every touched
    // cell a genuinely dead below-pin version. Elision collapses the same-timestamp bursts
    // inside each pass, so without this the prefill would retain exactly one (pinned)
    // version per cell and the mid-run collectors would have nothing to prove themselves
    // on.
    camera.take_snapshot();
    for key in 1..=key_range {
        if tree.remove(key) {
            tree.insert(key, key + 1);
        }
    }

    // The long-pinned reader: freeze a set of answers at the pin's timestamp.
    let view = tree.view();
    let pinned_ts = view.timestamp().expect("versioned tree views are pinned");
    let probe: Vec<Key> = (0..32).map(|i| i * key_range.max(32) / 32 + 1).collect();
    let frozen_probe = view.multi_get(&probe);
    let frozen_len = view.len();

    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..spec.threads.max(1) {
        let tree = tree.clone();
        let stop = stop.clone();
        let total_ops = total_ops.clone();
        let seed = spec.seed + t as u64;
        let skew = spec.skew;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ops = 0u64;
            until_stopped(&stop, || {
                let key = skew.sample(&mut rng, key_range);
                if rng.gen_bool(0.5) {
                    tree.insert(key, key);
                } else {
                    tree.remove(key);
                }
                ops += 1;
            });
            total_ops.fetch_add(ops, Ordering::Relaxed);
        }));
    }

    // Re-validate the frozen view throughout the window (the reader side of the scenario).
    let checks = scenario.reader_checks.max(1);
    for check in 0..checks {
        std::thread::sleep(Duration::from_millis(spec.duration_ms / checks as u64));
        assert_eq!(
            view.timestamp(),
            Some(pinned_ts),
            "check {check}: pinned view lost its timestamp (seed={:#x})",
            spec.seed
        );
        assert_eq!(
            view.multi_get(&probe),
            frozen_probe,
            "check {check}: pinned view's answers changed under writers (seed={:#x})",
            spec.seed
        );
        assert_eq!(
            view.len(),
            frozen_len,
            "check {check}: pinned view's len changed under writers (seed={:#x})",
            spec.seed
        );
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        join_worker(h, spec);
    }
    let elapsed = start.elapsed();

    // Retirement observed *before* the final sweep below: with the reader pinned at the
    // window's start, this is exclusively the work of the installed policy (amortized
    // hooks / background collector) truncating history below the pin — zero when the
    // policy is `Disabled`, so it is the signal that the automatic drivers actually ran.
    let versions_retired_during_run = camera.versions_retired();
    let guard = vcas_ebr::pin();
    let stats_while_pinned = Collectible::version_stats(tree.as_ref(), &guard);
    drop(guard);

    // Pin drops; collection must now be able to reclaim everything above one version per
    // cell. Stop a background collector first so the quiescence sweep is uncontended.
    drop(view);
    drop(collector);
    let guard = vcas_ebr::pin();
    let sweep = camera.collect_to_quiescence(1 << 20, 64, &guard);
    assert!(sweep.completed_cycle, "collection never reached quiescence (seed={:#x})", spec.seed);
    let stats_after_drop = Collectible::version_stats(tree.as_ref(), &guard);
    drop(guard);
    // Drain the EBR domain so node-retirement cascades (a retired node's destructor
    // releases the version references *it* held) settle before the memory accounting.
    let pending = drain_ebr_settled();
    assert_eq!(pending, 0, "EBR domain failed to drain at quiescence (seed={:#x})", spec.seed);
    assert!(
        stats_after_drop.max_versions_per_cell <= 2,
        "version lists still unbounded after the pin dropped: {stats_after_drop:?} (seed={:#x})",
        spec.seed
    );

    // Node-leak check, part 1: with the pin gone, history truncated, and EBR drained,
    // exactly the current tree survives — `len` keys = `len` leaves + `len` internal
    // nodes + the root + its two dummy leaves. One more live node would be an unlinked
    // node that outlived its last version reference (the pre-fix leak); one fewer, a
    // double free.
    let live_nodes_after_quiescence = camera.approx_live_nodes();
    let expected_nodes = 2 * tree.view().len() as u64 + 3;
    assert_eq!(
        live_nodes_after_quiescence, expected_nodes,
        "live-node estimate diverged from the surviving tree (seed={:#x})",
        spec.seed
    );
    let live_versions_after_quiescence = camera.approx_live_versions();
    let nodes_retired = camera.nodes_retired();

    let result = ReclaimResult {
        updates: Throughput { operations: total_ops.load(Ordering::Relaxed), elapsed },
        versions_retired: camera.versions_retired(),
        versions_retired_during_run,
        stats_while_pinned,
        stats_after_drop,
        nodes_retired,
        live_versions_after_quiescence,
        live_nodes_after_quiescence,
        versions_created: camera.versions_created(),
        versions_elided: camera.versions_elided(),
    };

    // Node-leak check, part 2: dropping the tree must conserve every counter exactly —
    // nothing allocated on this camera outlives the run.
    drop(tree);
    let pending = drain_ebr_settled();
    assert_eq!(pending, 0, "EBR domain failed to drain after drop (seed={:#x})", spec.seed);
    assert_eq!(
        camera.nodes_created(),
        camera.nodes_retired() + camera.nodes_dropped(),
        "node conservation violated after structure drop (seed={:#x})",
        spec.seed
    );
    assert_eq!(
        camera.approx_live_nodes(),
        0,
        "data nodes leaked past structure drop (seed={:#x})",
        spec.seed
    );
    assert_eq!(
        camera.approx_live_versions(),
        0,
        "version nodes leaked past structure drop (seed={:#x})",
        spec.seed
    );

    result
}

/// Result of a `skiplist` scenario run (see [`run_skiplist`]).
#[derive(Debug, Clone, Copy)]
pub struct SkipListResult {
    /// Throughput of the mixed workers (inserts + deletes + finds + range scans).
    pub updates: Throughput,
    /// Streaming range scans completed by the workers' range slot.
    pub range_queries: u64,
    /// Keys yielded by those streaming scans (range slot + full scans combined).
    pub range_keys_streamed: u64,
    /// Full scan-while-update iterations completed (`scenario.scan_every > 0`).
    pub full_scans: u64,
    /// Per-cell version-list statistics after the pin dropped and collection reached
    /// quiescence; the driver asserts `max_versions_per_cell <= 2` here.
    pub stats_after_drop: VersionStats,
    /// Skip-list nodes retired through the version-reference protocol over the run.
    pub nodes_retired: u64,
    /// [`Camera::approx_live_nodes`] after quiescence, asserted equal to the surviving
    /// list's node count exactly (`len + 1` — one node per key plus the head sentinel).
    pub live_nodes_after_quiescence: u64,
}

/// Runs the `skiplist` scenario: `spec.threads` mixed workers drive a versioned
/// [`VcasSkipList`] with the spec's insert/delete/find mix, the mix's range slot issuing
/// **streaming** range scans ([`vcas_structures::view::MapSnapshotView::range_iter`])
/// whose widths are drawn from `scenario.range_width`, optionally interleaved with full
/// scan-while-update iterations — while **one long-pinned reader** (the driver thread)
/// holds a snapshot view across the whole window.
///
/// The driver asserts, panicking with the spec's seed on violation:
///
/// * the pinned view re-answers every frozen range read exactly, via the streaming
///   iterator, no matter how the writers churn (scan-while-update frozenness);
/// * every streamed scan yields keys in strictly ascending order within its window;
/// * after the pin drops, collection reaches quiescence and the EBR domain drains,
///   exactly the surviving list is live (`len + 1` nodes) and on structure drop the node
///   counters conserve (`created == retired + dropped`).
pub fn run_skiplist(spec: &WorkloadSpec, scenario: &SkipListScenario) -> SkipListResult {
    let camera = Camera::new();
    let list = Arc::new(VcasSkipList::new_versioned(&camera));
    camera.register_collectible(&list);
    let collector = scenario.policy.install(&camera);
    prefill(list.as_ref(), spec);
    let key_range = spec.key_range();

    // The long-pinned reader: freeze a set of range answers at the pin's timestamp.
    let view = list.view();
    let pinned_ts = view.timestamp();
    let mut probe_rng = StdRng::seed_from_u64(spec.seed ^ 0xD15C_0B3D);
    let probe_ranges: Vec<(Key, Key)> = (0..8)
        .map(|_| {
            let lo = probe_rng.gen_range(1..=key_range);
            (lo, lo.saturating_add(scenario.range_width.sample(&mut probe_rng) - 1))
        })
        .collect();
    let frozen: Vec<Vec<(Key, u64)>> =
        probe_ranges.iter().map(|&(lo, hi)| view.range(lo, hi)).collect();

    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let range_queries = Arc::new(AtomicU64::new(0));
    let range_keys = Arc::new(AtomicU64::new(0));
    let full_scans = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..spec.threads.max(1) {
        let list = list.clone();
        let stop = stop.clone();
        let total_ops = total_ops.clone();
        let range_queries = range_queries.clone();
        let range_keys = range_keys.clone();
        let full_scans = full_scans.clone();
        let seed = spec.seed + t as u64;
        let skew = spec.skew;
        let mix = spec.mix;
        let scenario = *scenario;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ops = 0u64;
            let (mut rqs, mut keys, mut scans) = (0u64, 0u64, 0u64);
            until_stopped(&stop, || {
                ops += 1;
                if scenario.scan_every > 0 && ops % scenario.scan_every == 0 {
                    // Scan-while-update: a full streaming iteration over a fresh view,
                    // checked for strict key order.
                    let v = list.view();
                    let mut last = 0u64;
                    for (k, _) in v.range_iter(0, Key::MAX) {
                        assert!(
                            last == 0 || k > last,
                            "full scan yielded {k} after {last} (seed={seed:#x})"
                        );
                        last = k;
                        keys += 1;
                    }
                    scans += 1;
                    return;
                }
                let key = skew.sample(&mut rng, key_range);
                let pct = rng.gen_range(0..100u32);
                if pct < mix.insert {
                    list.insert(key, key);
                } else if pct < mix.insert + mix.delete {
                    list.remove(key);
                } else if pct < mix.insert + mix.delete + mix.range {
                    let hi = key.saturating_add(scenario.range_width.sample(&mut rng) - 1);
                    let v = list.view();
                    let mut last = 0u64;
                    for (k, _) in v.range_iter(key, hi) {
                        assert!(
                            (key..=hi).contains(&k) && (last == 0 || k > last),
                            "range scan [{key}, {hi}] yielded {k} after {last} (seed={seed:#x})"
                        );
                        last = k;
                        keys += 1;
                    }
                    rqs += 1;
                } else {
                    let _ = list.get(key);
                }
            });
            total_ops.fetch_add(ops, Ordering::Relaxed);
            range_queries.fetch_add(rqs, Ordering::Relaxed);
            range_keys.fetch_add(keys, Ordering::Relaxed);
            full_scans.fetch_add(scans, Ordering::Relaxed);
        }));
    }

    // Re-validate the frozen range reads throughout the window, over the streaming path.
    let checks = scenario.reader_checks.max(1);
    for check in 0..checks {
        std::thread::sleep(Duration::from_millis(spec.duration_ms / checks as u64));
        assert_eq!(
            view.timestamp(),
            pinned_ts,
            "check {check}: pinned view lost its timestamp (seed={:#x})",
            spec.seed
        );
        for (i, &(lo, hi)) in probe_ranges.iter().enumerate() {
            let streamed: Vec<(Key, u64)> = view.range_iter(lo, hi).collect();
            assert_eq!(
                streamed, frozen[i],
                "check {check}: pinned range [{lo}, {hi}] changed under writers (seed={:#x})",
                spec.seed
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        join_worker(h, spec);
    }
    let elapsed = start.elapsed();

    // Pin drops; stop the background collector and sweep to quiescence.
    drop(view);
    drop(collector);
    let guard = vcas_ebr::pin();
    let sweep = camera.collect_to_quiescence(1 << 20, 64, &guard);
    assert!(sweep.completed_cycle, "collection never reached quiescence (seed={:#x})", spec.seed);
    let stats_after_drop = Collectible::version_stats(list.as_ref(), &guard);
    drop(guard);
    let pending = drain_ebr_settled();
    assert_eq!(pending, 0, "EBR domain failed to drain at quiescence (seed={:#x})", spec.seed);
    assert!(
        stats_after_drop.max_versions_per_cell <= 2,
        "version lists still unbounded after the pin dropped: {stats_after_drop:?} (seed={:#x})",
        spec.seed
    );

    // Exactly the surviving list is live: one node per key plus the head sentinel.
    let live_nodes_after_quiescence = camera.approx_live_nodes();
    let expected_nodes = list.view().len() as u64 + 1;
    assert_eq!(
        live_nodes_after_quiescence, expected_nodes,
        "live-node estimate diverged from the surviving list (seed={:#x})",
        spec.seed
    );
    let nodes_retired = camera.nodes_retired();

    let result = SkipListResult {
        updates: Throughput { operations: total_ops.load(Ordering::Relaxed), elapsed },
        range_queries: range_queries.load(Ordering::Relaxed),
        range_keys_streamed: range_keys.load(Ordering::Relaxed),
        full_scans: full_scans.load(Ordering::Relaxed),
        stats_after_drop,
        nodes_retired,
        live_nodes_after_quiescence,
    };

    // Dropping the list must conserve every counter exactly.
    drop(list);
    let pending = drain_ebr_settled();
    assert_eq!(pending, 0, "EBR domain failed to drain after drop (seed={:#x})", spec.seed);
    assert_eq!(
        camera.nodes_created(),
        camera.nodes_retired() + camera.nodes_dropped(),
        "node conservation violated after structure drop (seed={:#x})",
        spec.seed
    );
    assert_eq!(
        camera.approx_live_nodes(),
        0,
        "data nodes leaked past structure drop (seed={:#x})",
        spec.seed
    );
    assert_eq!(
        camera.approx_live_versions(),
        0,
        "version nodes leaked past structure drop (seed={:#x})",
        spec.seed
    );

    result
}

/// Result of a `timetravel` scenario run (see [`run_timetravel`]).
#[derive(Debug, Clone, Copy)]
pub struct TimeTravelResult {
    /// Throughput of the update threads (inserts + deletes) during the timed window.
    pub updates: Throughput,
    /// Individual temporal queries the reader issued (as-of revalidations, diffs, or
    /// cached lookups, depending on the mode).
    pub queries: u64,
    /// Number of named anchors held across the window.
    pub anchors: usize,
    /// Query-cache hits ([`TimeTravelMode::Cached`] only; zero otherwise).
    pub cache_hits: u64,
    /// Query-cache misses ([`TimeTravelMode::Cached`] only; zero otherwise).
    pub cache_misses: u64,
    /// [`Camera::approx_live_versions`] at the end of the window, while every anchor was
    /// still held — the cost of retention.
    pub retained_versions_while_anchored: u64,
    /// [`Camera::approx_live_versions`] after the last anchor dropped and collection
    /// reached quiescence — the proof that dropping anchors releases their history.
    pub retained_versions_after_release: u64,
}

impl TimeTravelResult {
    /// Fraction of cache lookups answered from the cache; 0.0 outside `Cached` mode.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Runs the `timetravel` scenario: `spec.threads` update-heavy writers advance history on
/// a versioned [`Nbbst`] with automatic reclamation installed (`scenario.policy`), while
/// the driver holds a ladder of `scenario.anchors` **named anchors** — each taken after a
/// burst of churn, each with its full state captured as a model — and re-validates them
/// `scenario.reader_checks` times across the timed window.
///
/// Per [`TimeTravelMode`], each reader round asserts (panicking with the spec's seed):
///
/// * `AsOf` — `view_at(anchor_ts)` replays each anchor's model exactly, forever;
/// * `Diff` — `diff(ts_i, ts_j)` over each adjacent anchor pair *reconciles*: applying
///   the diff to the older model reproduces the newer model;
/// * `Cached` — cached as-of answers equal uncached ones, with a positive hit rate.
///
/// After the window the driver drops every anchor, sweeps to quiescence, and asserts the
/// anchored timestamps are now truncated (`view_at` fails), their versions are reclaimed,
/// and the usual node-conservation invariants hold.
pub fn run_timetravel(spec: &WorkloadSpec, scenario: &TimeTravelScenario) -> TimeTravelResult {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    camera.register_collectible(&tree);
    let collector = scenario.policy.install(&camera);
    prefill(tree.as_ref(), spec);
    let key_range = spec.key_range();

    // Build the anchor ladder: churn, anchor, capture the model — repeatedly. Each model
    // is the full frozen state at its anchor's timestamp.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7A1E_7A1E);
    let mut anchors = Vec::new();
    let mut models: Vec<BTreeMap<Key, u64>> = Vec::new();
    for epoch in 0..scenario.anchors.max(1) {
        for _ in 0..256 {
            let key = rng.gen_range(1..=key_range);
            if rng.gen_bool(0.5) {
                tree.insert(key, key.wrapping_mul(epoch as u64 + 1));
            } else {
                tree.remove(key);
            }
        }
        let anchor = camera.anchor(&format!("epoch-{epoch}"));
        let view = tree.view_at(anchor.timestamp()).unwrap_or_else(|e| {
            panic!("anchored ts must be addressable: {e} (seed={:#x})", spec.seed)
        });
        models.push(view.iter().collect());
        anchors.push(anchor);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..spec.threads.max(1) {
        let tree = tree.clone();
        let stop = stop.clone();
        let total_ops = total_ops.clone();
        let seed = spec.seed + t as u64;
        let skew = spec.skew;
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ops = 0u64;
            until_stopped(&stop, || {
                let key = skew.sample(&mut rng, key_range);
                if rng.gen_bool(0.5) {
                    tree.insert(key, key);
                } else {
                    tree.remove(key);
                }
                ops += 1;
            });
            total_ops.fetch_add(ops, Ordering::Relaxed);
        }));
    }

    // The reader: re-validate every anchor each round while the writers churn.
    let cache = QueryCache::new();
    let source_id = cache.register_source();
    let mut queries = 0u64;
    let checks = scenario.reader_checks.max(1);
    for check in 0..checks {
        std::thread::sleep(Duration::from_millis(spec.duration_ms / checks as u64));
        match scenario.mode {
            TimeTravelMode::AsOf => {
                for (anchor, model) in anchors.iter().zip(&models) {
                    let view = tree.view_at(anchor.timestamp()).unwrap_or_else(|e| {
                        panic!(
                            "check {check}: anchor {:?} lost its history: {e} (seed={:#x})",
                            anchor.name(),
                            spec.seed
                        )
                    });
                    let replay: BTreeMap<Key, u64> = view.iter().collect();
                    assert_eq!(
                        &replay,
                        model,
                        "check {check}: anchored as-of answer drifted under writers \
                         (anchor {:?}, seed={:#x})",
                        anchor.name(),
                        spec.seed
                    );
                    queries += 1;
                }
            }
            TimeTravelMode::Diff => {
                for i in 0..anchors.len().saturating_sub(1) {
                    let (older, newer) = (&anchors[i], &anchors[i + 1]);
                    let d = tree.diff(older.timestamp(), newer.timestamp()).unwrap_or_else(|e| {
                        panic!("check {check}: diff lost history: {e} (seed={:#x})", spec.seed)
                    });
                    // Reconciliation: old model + diff = new model, key for key.
                    let mut patched = models[i].clone();
                    for (k, old) in &d.removed {
                        assert_eq!(
                            patched.remove(k),
                            Some(*old),
                            "check {check}: diff removed a key the old state lacked \
                             (seed={:#x})",
                            spec.seed
                        );
                    }
                    for (k, v) in &d.inserted {
                        assert_eq!(
                            patched.insert(*k, *v),
                            None,
                            "check {check}: diff inserted a key the old state had \
                             (seed={:#x})",
                            spec.seed
                        );
                    }
                    for (k, old, new) in &d.changed {
                        assert_eq!(
                            patched.insert(*k, *new),
                            Some(*old),
                            "check {check}: diff changed a key with the wrong old value \
                             (seed={:#x})",
                            spec.seed
                        );
                    }
                    assert_eq!(
                        patched,
                        models[i + 1],
                        "check {check}: diff between anchors does not reconcile \
                         (seed={:#x})",
                        spec.seed
                    );
                    queries += 1;
                }
            }
            TimeTravelMode::Cached => {
                for anchor in &anchors {
                    let cached = cache
                        .run_point(
                            source_id,
                            tree.as_ref(),
                            anchor.timestamp(),
                            QueryKind::Composed { n: 5 },
                            1,
                            key_range,
                        )
                        .unwrap_or_else(|e| {
                            panic!(
                                "check {check}: cached as-of lost history: {e} (seed={:#x})",
                                spec.seed
                            )
                        });
                    // The uncached answer, recomputed from scratch, must agree.
                    let view = tree.view_at(anchor.timestamp()).unwrap();
                    let uncached =
                        run_query_on_view(&view, QueryKind::Composed { n: 5 }, 1, key_range);
                    assert_eq!(
                        cached, uncached,
                        "check {check}: cached answer diverged from recomputation \
                         (seed={:#x})",
                        spec.seed
                    );
                    queries += 2;
                }
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        join_worker(h, spec);
    }
    let elapsed = start.elapsed();
    let retained_versions_while_anchored = camera.approx_live_versions();
    if scenario.mode == TimeTravelMode::Cached {
        assert!(cache.hits() > 0, "cached mode never hit its own cache (seed={:#x})", spec.seed);
    }

    // Release the history: every anchor drops, the background collector (if any) stops,
    // and one quiescence sweep must reclaim everything the anchors were holding.
    let oldest_anchor_ts = anchors.first().map(|a| a.timestamp()).unwrap_or(0);
    drop(anchors);
    drop(collector);
    let guard = vcas_ebr::pin();
    let sweep = camera.collect_to_quiescence(1 << 20, 64, &guard);
    assert!(sweep.completed_cycle, "collection never reached quiescence (seed={:#x})", spec.seed);
    drop(guard);
    let pending = drain_ebr_settled();
    assert_eq!(pending, 0, "EBR domain failed to drain at quiescence (seed={:#x})", spec.seed);

    // The anchored past is gone: the watermark moved past it, so as-of now *fails*
    // instead of answering from thin air...
    assert!(
        matches!(tree.view_at(oldest_anchor_ts), Err(RetentionError::Truncated { .. })),
        "dropped anchor's timestamp still addressable after quiescence (seed={:#x})",
        spec.seed
    );
    // ...and the cache's eviction hook agrees with the camera's watermark.
    if scenario.mode == TimeTravelMode::Cached {
        assert!(
            cache.maintain(&camera) > 0,
            "retention eviction removed nothing from the cache (seed={:#x})",
            spec.seed
        );
    }
    let retained_versions_after_release = camera.approx_live_versions();
    assert!(
        retained_versions_after_release <= retained_versions_while_anchored,
        "releasing anchors grew history (seed={:#x})",
        spec.seed
    );
    let live_nodes = camera.approx_live_nodes();
    let expected_nodes = 2 * tree.view().len() as u64 + 3;
    assert_eq!(
        live_nodes, expected_nodes,
        "live-node estimate diverged from the surviving tree (seed={:#x})",
        spec.seed
    );

    let result = TimeTravelResult {
        updates: Throughput { operations: total_ops.load(Ordering::Relaxed), elapsed },
        queries,
        anchors: scenario.anchors.max(1),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        retained_versions_while_anchored,
        retained_versions_after_release,
    };

    // Full conservation once the structure itself goes away.
    drop(tree);
    let pending = drain_ebr_settled();
    assert_eq!(pending, 0, "EBR domain failed to drain after drop (seed={:#x})", spec.seed);
    assert_eq!(
        camera.nodes_created(),
        camera.nodes_retired() + camera.nodes_dropped(),
        "node conservation violated after structure drop (seed={:#x})",
        spec.seed
    );
    assert_eq!(
        camera.approx_live_versions(),
        0,
        "version nodes leaked past structure drop (seed={:#x})",
        spec.seed
    );

    result
}

/// The sorted-insertion workload of Fig. 2i: an ascending key sequence is split into chunks
/// of 1024 keys placed on a global work queue; threads grab chunks and insert them. Returns
/// the insert throughput (keys inserted per second over the whole run).
pub fn run_sorted_insert(
    map: Arc<dyn AtomicRangeMap>,
    total_keys: u64,
    threads: usize,
) -> Throughput {
    const CHUNK: u64 = 1024;
    let next_chunk = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for _ in 0..threads {
        let map = map.clone();
        let next_chunk = next_chunk.clone();
        handles.push(std::thread::spawn(move || loop {
            let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
            let lo = chunk * CHUNK;
            if lo >= total_keys {
                break;
            }
            let hi = (lo + CHUNK).min(total_keys);
            for k in lo..hi {
                map.insert(k + 1, k + 1);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();
    vcas_ebr::flush();
    Throughput { operations: total_keys, elapsed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Mix;
    use vcas_structures::Nbbst;

    #[test]
    fn throughput_math() {
        let t = Throughput { operations: 2_000_000, elapsed: Duration::from_secs(2) };
        assert!((t.ops_per_sec() - 1_000_000.0).abs() < 1.0);
        assert!((t.mops() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prefill_reaches_target_size() {
        let spec = WorkloadSpec::new(1, 500, Mix::update_heavy());
        let tree = Nbbst::new_versioned_default();
        prefill(&tree, &spec);
        assert_eq!(tree.view().len(), 500);
    }

    #[test]
    fn mixed_run_completes_and_reports_positive_throughput() {
        let mut spec = WorkloadSpec::new(2, 200, Mix::update_heavy_with_rq());
        spec.duration_ms = 50;
        spec.range_size = 16;
        let tree: Arc<dyn AtomicRangeMap> = Arc::new(Nbbst::new_versioned_default());
        let t = run_mixed(tree, &spec);
        assert!(t.operations > 0, "no operations completed (seed={:#x})", spec.seed);
        assert!(t.ops_per_sec() > 0.0, "zero throughput (seed={:#x})", spec.seed);
    }

    #[test]
    fn single_thread_update_heavy_run_elides_on_every_versioned_structure() {
        use vcas_core::Camera;
        use vcas_structures::{HarrisList, VcasSkipList};
        let (bst, list, skip) = (Camera::new(), Camera::new(), Camera::new());
        let runs: [(&str, Arc<dyn AtomicRangeMap>, &Arc<Camera>); 3] = [
            ("VcasBST", Arc::new(Nbbst::new_versioned(&bst)), &bst),
            ("VcasList", Arc::new(HarrisList::new_versioned(&list)), &list),
            ("VcasSkipList", Arc::new(VcasSkipList::new_versioned(&skip)), &skip),
        ];
        for (name, map, camera) in runs {
            let mut spec = WorkloadSpec::new(1, 2_000, Mix::update_heavy());
            spec.duration_ms = 60;
            run_mixed(map, &spec);
            // One thread and no snapshots: the whole window runs at one timestamp, so
            // same-timestamp displacement is the common case. Gate contention, the only
            // legitimate reason to skip elision, needs a second thread.
            if camera.elision_enabled() {
                assert!(
                    camera.versions_elided() > 0,
                    "{name}: elision rate is zero over an update-heavy window (seed={:#x})",
                    spec.seed
                );
            }
        }
    }

    #[test]
    fn dedicated_run_reports_both_sides() {
        let mut spec = WorkloadSpec::new(2, 200, Mix::update_heavy());
        spec.duration_ms = 50;
        spec.range_size = 32;
        let tree: Arc<dyn AtomicRangeMap> = Arc::new(Nbbst::new_versioned_default());
        let r = run_dedicated(tree, &spec, 1, 1);
        assert!(r.updates.operations > 0, "no updates completed (seed={:#x})", spec.seed);
        assert!(
            r.range_queries.operations > 0,
            "no range queries completed (seed={:#x})",
            spec.seed
        );
    }

    #[test]
    fn hashmap_run_completes_for_every_contender() {
        use vcas_structures::{LockHashMap, VcasHashMap};
        let scenario = HashMapScenario { load_factor: 0.75, multi_get_batch: 8 };
        let mut spec = WorkloadSpec::new(2, 200, Mix::update_heavy_with_rq()).with_seed(0xFEED);
        spec.duration_ms = 50;
        let buckets = scenario.bucket_count(spec.initial_size);
        let maps: Vec<Arc<dyn SnapshotMap>> = vec![
            Arc::new(VcasHashMap::new_versioned(&vcas_core::Camera::new(), buckets)),
            Arc::new(VcasHashMap::new_plain(buckets)),
            Arc::new(LockHashMap::new()),
        ];
        for map in maps {
            let name = map.name();
            let t = run_hashmap(map, &spec, &scenario);
            assert!(t.operations > 0, "{name}: no operations (seed={:#x})", spec.seed);
        }
    }

    #[test]
    fn skewed_hashmap_run_stays_in_universe() {
        use crate::spec::KeySkew;
        use vcas_structures::VcasHashMap;
        let scenario = HashMapScenario::default();
        let mut spec = WorkloadSpec::new(2, 100, Mix::update_heavy())
            .with_skew(KeySkew::Skewed { exponent: 2.0 });
        spec.duration_ms = 40;
        let map = Arc::new(VcasHashMap::new_versioned_default());
        let as_map: Arc<dyn SnapshotMap> = map.clone();
        let t = run_hashmap(as_map, &spec, &scenario);
        assert!(t.operations > 0, "no operations (seed={:#x})", spec.seed);
        let key_range = spec.key_range();
        for (k, _) in map.view().iter() {
            assert!(
                (1..=key_range).contains(&k),
                "key {k} outside [1, {key_range}] (seed={:#x})",
                spec.seed
            );
        }
    }

    #[test]
    fn composed_run_reports_queries_and_snapshots() {
        use crate::spec::ComposedScenario;
        let camera = vcas_core::Camera::new();
        let tree = Arc::new(Nbbst::new_versioned(&camera));
        let map = Arc::new(VcasHashMap::new_versioned(&camera, 64));
        let mut spec = WorkloadSpec::new(2, 200, Mix::update_heavy());
        spec.duration_ms = 50;
        let scenario = ComposedScenario { queries_per_view: 8, cross_per_snapshot: 2 };
        let r = run_composed(tree, map, &spec, &scenario, 1, 1);
        assert!(r.updates.operations > 0, "no updates completed (seed={:#x})", spec.seed);
        assert!(r.queries.operations > 0, "no queries completed (seed={:#x})", spec.seed);
        assert!(r.snapshots > 0, "no group snapshots taken (seed={:#x})", spec.seed);
        // Each snapshot amortizes the configured batch of queries.
        assert_eq!(r.queries.operations, r.snapshots * 10, "seed={:#x}", spec.seed);
        // No view is left open after the run: nothing remains pinned.
        assert_eq!(camera.pinned_count(), 0);
    }

    #[test]
    #[should_panic(expected = "one camera")]
    fn composed_run_rejects_mismatched_cameras() {
        let tree = Arc::new(Nbbst::new_versioned_default());
        let map = Arc::new(VcasHashMap::new_versioned_default());
        let spec = WorkloadSpec::new(1, 10, Mix::update_heavy());
        let _ = run_composed(tree, map, &spec, &ComposedScenario::default(), 0, 0);
    }

    #[test]
    fn reclaim_run_bounds_versions_under_every_policy() {
        use crate::spec::ReclaimScenario;
        use vcas_core::ReclaimPolicy;
        for policy in [
            ReclaimPolicy::Disabled,
            ReclaimPolicy::Amortized { every_n_updates: 64, budget: 128 },
            ReclaimPolicy::Background { interval_ms: 2, budget: 512 },
            ReclaimPolicy::Adaptive { initial_interval_ms: 2, budget: 512 },
        ] {
            let mut spec = WorkloadSpec::new(2, 150, Mix::update_heavy());
            spec.duration_ms = 60;
            let scenario = ReclaimScenario { policy, reader_checks: 3 };
            // run_reclaim asserts the frozen-view, bounded-versions, and node-conservation
            // invariants itself.
            let r = run_reclaim(&spec, &scenario);
            assert!(r.updates.operations > 0, "{policy:?}: no updates (seed={:#x})", spec.seed);
            assert!(
                r.versions_retired > 0,
                "{policy:?}: nothing reclaimed (seed={:#x})",
                spec.seed
            );
            // The mid-run counter separates the policies: only the automatic drivers can
            // retire anything before the final sweep.
            if policy == ReclaimPolicy::Disabled {
                assert_eq!(
                    r.versions_retired_during_run, 0,
                    "Disabled must not collect mid-run (seed={:#x})",
                    spec.seed
                );
            } else {
                assert!(
                    r.versions_retired_during_run > 0,
                    "{policy:?}: drivers never collected during the run (seed={:#x})",
                    spec.seed
                );
            }
            assert!(r.stats_after_drop.max_versions_per_cell <= 2, "{policy:?}");
            assert!(
                r.stats_while_pinned.versions >= r.stats_after_drop.versions,
                "{policy:?}: quiescence must not grow history"
            );
            // Data-node reclamation: churn strands unlinked nodes behind version
            // pointers, and truncating those pointers must retire them.
            assert!(
                r.nodes_retired > 0,
                "{policy:?}: no data nodes retired (seed={:#x})",
                spec.seed
            );
            assert!(
                r.live_versions_after_quiescence >= r.live_nodes_after_quiescence / 2,
                "{policy:?}: implausible live accounting: {r:?}"
            );
            // The tree never outgrows its key universe, so the leaf-oriented tree holds at
            // most 2·key_range + 3 nodes: more live nodes would mean truncation leaked data
            // nodes. (`run_reclaim` checks the exact count against the surviving tree;
            // this is the key-universe ceiling.)
            let node_ceiling = 2 * spec.key_range() + 3;
            assert!(
                r.live_nodes_after_quiescence <= node_ceiling,
                "{policy:?}: live nodes unbounded after quiescence: {} > {node_ceiling} \
                 (seed={:#x})",
                r.live_nodes_after_quiescence,
                spec.seed
            );
        }
    }

    #[test]
    fn skiplist_run_validates_under_every_policy() {
        use crate::spec::{RangeWidth, SkipListScenario};
        use vcas_core::ReclaimPolicy;
        for policy in [
            ReclaimPolicy::Disabled,
            ReclaimPolicy::Amortized { every_n_updates: 64, budget: 128 },
            ReclaimPolicy::Background { interval_ms: 2, budget: 512 },
            ReclaimPolicy::Adaptive { initial_interval_ms: 2, budget: 512 },
        ] {
            // 2 concurrent writers, a hot range slot, and scan-while-update enabled.
            let mut spec = WorkloadSpec::new(2, 150, Mix { insert: 30, delete: 20, range: 10 });
            spec.duration_ms = 60;
            let scenario = SkipListScenario {
                policy,
                reader_checks: 3,
                range_width: RangeWidth::Uniform { min: 8, max: 64 },
                scan_every: 256,
            };
            // run_skiplist asserts the frozen-range, stream-ordering, bounded-versions,
            // and node-conservation invariants itself.
            let r = run_skiplist(&spec, &scenario);
            assert!(r.updates.operations > 0, "{policy:?}: no updates (seed={:#x})", spec.seed);
            assert!(
                r.range_queries > 0,
                "{policy:?}: range slot never ran (seed={:#x})",
                spec.seed
            );
            assert!(
                r.range_keys_streamed > 0,
                "{policy:?}: streaming scans yielded nothing (seed={:#x})",
                spec.seed
            );
            assert!(r.full_scans > 0, "{policy:?}: no full scans (seed={:#x})", spec.seed);
            assert!(r.stats_after_drop.max_versions_per_cell <= 2, "{policy:?}");
            // Churn strands unlinked towers behind version pointers; truncating those
            // pointers must retire them.
            assert!(
                r.nodes_retired > 0,
                "{policy:?}: no data nodes retired (seed={:#x})",
                spec.seed
            );
        }
    }

    #[test]
    fn timetravel_run_validates_every_mode() {
        use crate::spec::{TimeTravelMode, TimeTravelScenario};
        for mode in TimeTravelMode::all() {
            let mut spec = WorkloadSpec::new(2, 150, Mix::update_heavy());
            spec.duration_ms = 60;
            let scenario =
                TimeTravelScenario { mode, anchors: 3, reader_checks: 3, ..Default::default() };
            // run_timetravel asserts the frozen-anchor, diff-reconciliation, cache-
            // coherence, history-release, and node-conservation invariants itself.
            let r = run_timetravel(&spec, &scenario);
            assert!(r.updates.operations > 0, "{mode:?}: no updates (seed={:#x})", spec.seed);
            assert!(r.queries > 0, "{mode:?}: no temporal queries (seed={:#x})", spec.seed);
            assert_eq!(r.anchors, 3);
            assert!(
                r.retained_versions_after_release <= r.retained_versions_while_anchored,
                "{mode:?}: releasing anchors grew history (seed={:#x})",
                spec.seed
            );
            if mode == TimeTravelMode::Cached {
                assert!(r.cache_hits > 0, "no cache hits (seed={:#x})", spec.seed);
                assert!(r.cache_hit_rate() > 0.0, "zero hit rate (seed={:#x})", spec.seed);
            } else {
                assert_eq!(r.cache_hits + r.cache_misses, 0, "{mode:?} must not touch the cache");
            }
        }
    }

    #[test]
    fn sorted_insert_inserts_every_key() {
        let tree = Arc::new(Nbbst::new_versioned_default());
        let as_map: Arc<dyn AtomicRangeMap> = tree.clone();
        let t = run_sorted_insert(as_map, 4096, 2);
        assert_eq!(t.operations, 4096);
        assert_eq!(tree.view().len(), 4096);
    }
}
