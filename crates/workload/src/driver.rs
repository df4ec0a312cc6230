//! The multithreaded throughput driver.
//!
//! Every run goes through one timed runner: the caller builds its structures, describes
//! its worker pools (thread count, seed offset, one op closure each) and hands them to
//! `run_pools`, which spawns, times, stops and joins the workers. Runs on a registered,
//! versioned structure end in `settle`, which checks that history and nodes are
//! reclaimed exactly once the run's pins are gone.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vcas_core::reclaim::{Collectible, VersionStats};
use vcas_core::{Camera, ReclaimPolicy, RetentionError};
use vcas_structures::queries::{run_cross_query, run_query_on_view, CrossQueryKind, QueryKind};
use vcas_structures::traits::{AtomicRangeMap, ConcurrentMap, Key, SnapshotMap};
use vcas_structures::view::{MapSnapshotView, SnapshotSource};
use vcas_structures::{Nbbst, VcasHashMap, VcasSkipList};

use crate::spec::{Mix, Op, TimeTravelMode, WorkloadSpec, MULTI_GET_BATCH};

/// Times the driver thread re-validates a run's pinned view or past instants, in equal
/// slices of the window.
const READER_CHECKS: u32 = 4;
/// Pinned past instants [`run_timetravel`] holds across its window.
const EPOCHS: usize = 4;
/// Widths (keys spanned) that [`run_skiplist`]'s range slot draws from, uniformly.
const RANGE_WIDTH: RangeInclusive<u64> = 16..=256;
/// One in `SCAN_EVERY` operations of a [`run_skiplist`] worker is a full streaming scan.
const SCAN_EVERY: u64 = 512;
/// Table-2 sub-queries [`run_composed`] runs on each tree view.
const QUERIES_PER_VIEW: usize = 16;
/// Cross-structure queries [`run_composed`] runs per shared pin.
const CROSS_PER_SNAPSHOT: usize = 2;
/// The reclamation policy [`run_timetravel`] installs; its pins must survive it.
const TIME_TRAVEL_POLICY: ReclaimPolicy =
    ReclaimPolicy::Amortized { every_n_updates: 128, budget: 64 };
/// The mix of every pool that only writes: 50% inserts, 50% deletes.
const UPDATES: Mix = Mix { insert: 50, delete: 50, range: 0 };
/// Nodes per key and fixed nodes of a quiescent leaf-oriented BST: a leaf and an internal
/// node per key, plus the root and its two dummy leaves.
const BST_NODES: (u64, u64) = (2, 3);
/// Nodes per key and fixed nodes of a quiescent skip list: one per key (the head is a tower
/// of cells, not a node).
const SKIPLIST_NODES: (u64, u64) = (1, 0);

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
pub fn prefill<M: ConcurrentMap + ?Sized>(map: &M, spec: &WorkloadSpec) {
    let key_range = spec.key_range();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x9E3779B97F4A7C15);
    let mut inserted = 0;
    while inserted < spec.initial_size {
        let k = rng.gen_range(1..=key_range);
        if map.insert(k, k) {
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

/// One pool of closed-loop workers for [`run_pools`].
struct Pool<'a> {
    /// Worker threads in the pool.
    threads: usize,
    /// Worker `t` seeds its RNG with `spec.seed + seed_offset + t`.
    seed_offset: u64,
    /// One step of a worker; returns the operations it completed.
    op: &'a (dyn Fn(&mut StdRng) -> u64 + Sync),
}

/// Raises the stop flag when dropped, so a panic on the driver thread cannot leave
/// workers spinning in a scope that waits for them.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The one timed runner. Spawns every pool's workers, runs the `spec.duration_ms` window
/// in [`READER_CHECKS`] equal slices, calling `check(slice)` on the driver thread after
/// each, then stops and joins the workers, flushes EBR and returns one [`Throughput`] per
/// pool.
///
/// A worker calls its op until the window closes, checking the stop flag *after* each
/// call, so every worker completes at least one call: a window that closes before a
/// worker is first scheduled (a short window on a loaded host) still measures work. A
/// pool whose op drains a shared work queue runs with a zero window, so each of its
/// workers makes exactly one call.
///
/// Panics naming `spec.seed` if a worker panicked, so the failing run can be reproduced.
fn run_pools<const N: usize>(
    spec: &WorkloadSpec,
    pools: [Pool<'_>; N],
    mut check: impl FnMut(u32),
) -> [Throughput; N] {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let operations = std::thread::scope(|s| {
        let stop_on_drop = StopOnDrop(&stop);
        let stop = &stop;
        let handles: Vec<Vec<_>> = pools
            .iter()
            .map(|pool| {
                (0..pool.threads as u64)
                    .map(|t| {
                        let seed = spec.seed.wrapping_add(pool.seed_offset + t);
                        s.spawn(move || {
                            let mut rng = StdRng::seed_from_u64(seed);
                            let mut ops = 0;
                            loop {
                                ops += (pool.op)(&mut rng);
                                if stop.load(Ordering::Relaxed) {
                                    return ops;
                                }
                            }
                        })
                    })
                    .collect()
            })
            .collect();
        let slice = Duration::from_millis(spec.duration_ms) / READER_CHECKS;
        for i in 0..READER_CHECKS {
            std::thread::sleep(slice);
            check(i);
        }
        drop(stop_on_drop);
        let mut operations = [0u64; N];
        for (sum, workers) in operations.iter_mut().zip(handles) {
            *sum = workers.into_iter().map(|h| join_worker(h, spec)).sum();
        }
        operations
    });
    let elapsed = start.elapsed();
    vcas_ebr::flush();
    operations.map(|operations| Throughput { operations, elapsed })
}

/// Joins a worker, converting a worker panic into one that names the spec's seed so the
/// failing run can be reproduced. (Every handle is joined here: a scoped thread left to
/// the scope would surface only as "a scoped thread panicked".)
fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, T>, spec: &WorkloadSpec) -> T {
    handle.join().unwrap_or_else(|_| {
        panic!("workload worker thread panicked (reproduce with seed={:#x})", spec.seed)
    })
}

/// A worker op that draws a key from `spec.skew` and one operation of `mix` per call. The
/// mix's range slot runs `range` on the drawn key.
fn mixed<'a, M: ConcurrentMap + ?Sized>(
    map: &'a M,
    mix: Mix,
    spec: &'a WorkloadSpec,
    range: impl Fn(&M, Key, &mut StdRng) + Sync + 'a,
) -> impl Fn(&mut StdRng) -> u64 + Sync + 'a {
    let key_range = spec.key_range();
    move |rng| {
        let key = spec.skew.sample(rng, key_range);
        match mix.draw(rng) {
            Op::Insert => drop(map.insert(key, key)),
            Op::Delete => drop(map.remove(key)),
            Op::Range => range(map, key, rng),
            Op::Find => drop(std::hint::black_box(map.contains(key))),
        }
        1
    }
}

/// A worker op of 50% inserts and 50% deletes on keys drawn from `spec.skew`.
fn update_op<'a, M: ConcurrentMap + ?Sized>(
    map: &'a M,
    spec: &'a WorkloadSpec,
) -> impl Fn(&mut StdRng) -> u64 + Sync + 'a {
    mixed(map, UPDATES, spec, |_, _, _| {})
}

/// The query a map runs in the range slot of [`run_mixed`]'s mix.
pub trait RangeSlot: ConcurrentMap {
    /// Runs one range-slot query anchored at `key`, drawing any further keys from `rng`.
    fn range_slot(&self, key: Key, spec: &WorkloadSpec, rng: &mut StdRng);
}

/// Ordered maps: an atomic `range` of `spec.range_size` keys from `key`, clipped to the
/// key universe.
impl RangeSlot for dyn AtomicRangeMap {
    fn range_slot(&self, key: Key, spec: &WorkloadSpec, _rng: &mut StdRng) {
        let hi = key.saturating_add(spec.range_size).min(spec.key_range());
        std::hint::black_box(self.range(key, hi));
    }
}

/// Hash maps: an atomic `multi_get` of [`MULTI_GET_BATCH`] keys, `key` and the rest drawn
/// from `spec.skew` like every other operation key.
impl RangeSlot for dyn SnapshotMap {
    fn range_slot(&self, key: Key, spec: &WorkloadSpec, rng: &mut StdRng) {
        let key_range = spec.key_range();
        let mut keys = [key; MULTI_GET_BATCH];
        for slot in &mut keys[1..] {
            *slot = spec.skew.sample(rng, key_range);
        }
        std::hint::black_box(self.multi_get(&keys));
    }
}

/// Runs the paper's mixed workload (§7 "Workload"): every thread repeatedly draws an
/// operation from the mix and a key from `spec.skew`; the range slot runs the map's
/// [`RangeSlot`] query. Returns aggregate throughput.
pub fn run_mixed<M: RangeSlot + ?Sized>(map: &M, spec: &WorkloadSpec) -> Throughput {
    prefill(map, spec);
    let op = mixed(map, spec.mix, spec, |map, key, rng| map.range_slot(key, spec, rng));
    let [throughput] =
        run_pools(spec, [Pool { threads: spec.threads, seed_offset: 0, op: &op }], |_| {});
    throughput
}

/// Runs the dedicated-thread experiment of Figs. 2g–2k: `update_threads` threads perform 50%
/// inserts / 50% deletes while `rq_threads` threads repeatedly execute range queries of
/// `spec.range_size` keys. Reports the two throughputs separately.
pub fn run_dedicated(
    map: &dyn AtomicRangeMap,
    spec: &WorkloadSpec,
    update_threads: usize,
    rq_threads: usize,
) -> DedicatedResult {
    prefill(map, spec);
    let key_range = spec.key_range();
    let update = update_op(map, spec);
    let query = |rng: &mut StdRng| {
        let lo: Key = rng.gen_range(1..=key_range.saturating_sub(spec.range_size).max(1));
        std::hint::black_box(map.range(lo, lo + spec.range_size));
        1
    };
    let [updates, range_queries] = run_pools(
        spec,
        [
            Pool { threads: update_threads, seed_offset: 0, op: &update },
            Pool { threads: rq_threads, seed_offset: 1000, op: &query },
        ],
        |_| {},
    );
    DedicatedResult { updates, range_queries }
}

/// Result of a `composed` scenario run (see [`run_composed`]).
#[derive(Debug, Clone, Copy)]
pub struct ComposedResult {
    /// Throughput of the update threads (inserts + deletes across both structures).
    pub updates: Throughput,
    /// Throughput of the query threads, counted in *individual* queries (each composed
    /// sub-query and each cross-structure query is one operation).
    pub queries: Throughput,
    /// Number of shared pins taken — i.e. how many view batches the query throughput was
    /// amortized over.
    pub snapshots: u64,
}

/// Runs the `composed` scenario: view-driven query execution against an [`Nbbst`] and a
/// [`VcasHashMap`] that share one camera, under concurrent updaters.
///
/// `update_threads` threads perform 50% inserts / 50% deletes, alternating between the
/// two structures; `query_threads` threads repeatedly take **one pin** on the shared
/// camera, open one view per structure in it ([`SnapshotSource::view_in`]),
/// and run 16 Table-2 sub-queries on the tree view ([`QueryKind::Composed`]) plus 2
/// cross-structure queries ([`CrossQueryKind`]) over both views — so the snapshot and EBR
/// pin are amortized over the whole batch.
///
/// Panics if the structures are unversioned or do not share a camera.
pub fn run_composed(
    tree: Arc<Nbbst>,
    map: Arc<VcasHashMap>,
    spec: &WorkloadSpec,
    update_threads: usize,
    query_threads: usize,
) -> ComposedResult {
    let camera = tree.camera().expect("composed scenario needs a versioned BST").clone();
    assert!(
        map.camera().is_some_and(|c| Arc::ptr_eq(c, &camera)),
        "composed scenario needs tree and hash map on one camera"
    );

    // Prefill each structure to half the target size (distinct seeds so the two halves
    // draw different key sets).
    let half_spec = WorkloadSpec { initial_size: spec.initial_size / 2, ..spec.clone() };
    prefill(tree.as_ref(), &half_spec);
    prefill(map.as_ref(), &half_spec.clone().with_seed(spec.seed ^ 0x5EED));

    let key_range = spec.key_range();
    let (tree_updates, map_updates) =
        (update_op(tree.as_ref(), spec), update_op(map.as_ref(), spec));
    let update = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            tree_updates(rng)
        } else {
            map_updates(rng)
        }
    };
    let snapshots = AtomicU64::new(0);
    let query = |rng: &mut StdRng| {
        let anchor = rng.gen_range(1..=key_range);
        let pin = camera.pin_snapshot();
        let tree_view = tree.view_in(&pin).expect("a pinned timestamp stays addressable");
        let map_view = map.view_in(&pin).expect("a pinned timestamp stays addressable");
        std::hint::black_box(run_query_on_view(
            tree_view.as_ref(),
            QueryKind::Composed { n: QUERIES_PER_VIEW },
            anchor,
            key_range,
        ));
        for kind in CrossQueryKind::all().into_iter().cycle().take(CROSS_PER_SNAPSHOT) {
            std::hint::black_box(run_cross_query(
                map_view.as_ref(),
                tree_view.as_ref(),
                kind,
                anchor,
                key_range,
            ));
        }
        snapshots.fetch_add(1, Ordering::Relaxed);
        (QUERIES_PER_VIEW + CROSS_PER_SNAPSHOT) as u64
    };
    let [updates, queries] = run_pools(
        spec,
        [
            Pool { threads: update_threads, seed_offset: 0, op: &update },
            Pool { threads: query_threads, seed_offset: 2000, op: &query },
        ],
        |_| {},
    );
    ComposedResult { updates, queries, snapshots: snapshots.into_inner() }
}

/// What [`settle`] read at quiescence, before the structure dropped.
struct Settled {
    /// Per-cell version-list statistics after the quiescence sweep.
    stats: VersionStats,
    /// [`Camera::approx_live_versions`].
    live_versions: u64,
    /// [`Camera::approx_live_nodes`], asserted equal to the surviving structure's count.
    live_nodes: u64,
    /// [`Camera::nodes_retired`].
    nodes_retired: u64,
    /// [`Camera::versions_retired`].
    versions_retired: u64,
}

/// The teardown of every run on a versioned structure registered with `camera`, once the
/// caller has dropped its pins and background collector. Asserts, panicking with
/// the spec's seed:
///
/// * a quiescence sweep completes and the EBR domain drains exactly;
/// * every cell's version list has collapsed to at most 2 versions (the run did not leak
///   history);
/// * exactly the surviving structure is live: `per_key · len + fixed` nodes (`nodes`).
///   One more would be an unlinked node that outlived its last version reference; one
///   fewer, a double free.
///
/// Then runs `at_quiescence` on the structure, drops it, and asserts that the EBR domain
/// drains again and every counter is conserved: `created == retired + dropped` for nodes,
/// and no node or version outlives the structure.
fn settle<S: Collectible + SnapshotSource>(
    camera: &Camera,
    structure: Arc<S>,
    (per_key, fixed): (u64, u64),
    spec: &WorkloadSpec,
    at_quiescence: impl FnOnce(&S),
) -> Settled {
    let guard = vcas_ebr::pin();
    let sweep = camera.collect_to_quiescence(1 << 20, 64, &guard);
    assert!(sweep.completed_cycle, "collection never reached quiescence (seed={:#x})", spec.seed);
    let stats = Collectible::version_stats(structure.as_ref(), &guard);
    drop(guard);
    // Drain the EBR domain so node-retirement cascades (a retired node's destructor
    // releases the version references *it* held) settle before the memory accounting.
    let pending = drain_ebr_settled();
    assert_eq!(pending, 0, "EBR domain failed to drain at quiescence (seed={:#x})", spec.seed);
    assert!(
        stats.max_versions_per_cell <= 2,
        "version lists still unbounded after the pin dropped: {stats:?} (seed={:#x})",
        spec.seed
    );
    let live_nodes = camera.approx_live_nodes();
    let expected_nodes = per_key * structure.snapshot_view().len() as u64 + fixed;
    assert_eq!(
        live_nodes, expected_nodes,
        "live-node estimate diverged from the surviving structure (seed={:#x})",
        spec.seed
    );
    at_quiescence(&structure);
    let settled = Settled {
        stats,
        live_versions: camera.approx_live_versions(),
        live_nodes,
        nodes_retired: camera.nodes_retired(),
        versions_retired: camera.versions_retired(),
    };

    drop(structure);
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
    settled
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
}

/// Runs the `reclaim` scenario: `spec.threads` update-heavy writers (50% inserts / 50%
/// deletes) hammer a versioned [`Nbbst`] registered with its camera for automatic
/// reclamation under `policy` ([`ReclaimPolicy::Disabled`] reproduces the leak the
/// subsystem fixes: collection then only happens in the final quiescence sweep), while
/// **one long-pinned reader** (the driver thread) holds a snapshot view open across the
/// whole timed window.
/// Before the window, the live keys and 32 residue keys above the writers' key range
/// are reinstalled across a camera advance, stranding dead history below the pin; the
/// residue keys' cells are never written by the writers, so their history waits for the
/// installed driver.
///
/// The driver asserts, panicking with the spec's seed on violation:
///
/// * the pinned view answers every re-validation with its exact frozen state (reads at
///   its timestamp never change, no matter how much is truncated around it);
/// * after the pin drops and a quiescence sweep completes, every cell's version list has
///   collapsed to at most 2 versions — i.e. the run did not leak version history;
/// * exactly the surviving tree is live (`2·len + 3` nodes), and after the tree drops
///   every node and version counter is conserved.
pub fn run_reclaim(spec: &WorkloadSpec, policy: ReclaimPolicy) -> ReclaimResult {
    /// Keys above the writers' range whose reinstall strands history only a driver cuts.
    const RESIDUE_KEYS: u64 = 32;
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    camera.register_collectible(&tree);
    prefill(tree.as_ref(), spec);
    let key_range = spec.key_range();
    // Residue keys above the writers' range: cells the writers never write, so the dead
    // history stranded there below the pin is left for the installed driver alone (a
    // writer's write-time pruning would otherwise race the driver for it).
    let residue = key_range + 1..=key_range + RESIDUE_KEYS;
    for key in residue.clone() {
        tree.insert(key, key);
    }
    // Deepen the prefill history across one camera advance: reinstall the live keys at a
    // *new* timestamp (insert is insert-if-absent, so remove first), leaving every touched
    // cell a genuinely dead below-pin version. Elision collapses the same-timestamp bursts
    // inside each pass, so without this the prefill would retain exactly one (pinned)
    // version per cell and the mid-run collectors would have nothing to prove themselves
    // on.
    camera.take_snapshot();
    for key in (1..=key_range).chain(residue) {
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
    // The policy starts with the pin held: a driver installed earlier would raise the
    // watermark during the reinstall above, whose own writes would then prune the history
    // it is meant to find.
    let collector = policy.install(&camera);

    let [updates] = run_pools(
        spec,
        [Pool { threads: spec.threads.max(1), seed_offset: 0, op: &update_op(&*tree, spec) }],
        |check| {
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
        },
    );

    // Retirement observed *before* the final sweep: with the reader pinned at the
    // window's start, this is exclusively the work of the installed policy (amortized
    // hooks / background collector) truncating history below the pin — zero when the
    // policy is `Disabled`, so it is the signal that the automatic drivers actually ran.
    let versions_retired_during_run = camera.versions_retired();
    let guard = vcas_ebr::pin();
    let stats_while_pinned = Collectible::version_stats(tree.as_ref(), &guard);
    drop(guard);

    // Pin drops; stop a background collector first so the quiescence sweep is
    // uncontended.
    drop(view);
    drop(collector);
    let settled = settle(&camera, tree, BST_NODES, spec, |_| {});
    ReclaimResult {
        updates,
        versions_retired: settled.versions_retired,
        versions_retired_during_run,
        stats_while_pinned,
        stats_after_drop: settled.stats,
        nodes_retired: settled.nodes_retired,
        live_versions_after_quiescence: settled.live_versions,
        live_nodes_after_quiescence: settled.live_nodes,
    }
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
    /// Full scan-while-update iterations completed.
    pub full_scans: u64,
    /// Per-cell version-list statistics after the pin dropped and collection reached
    /// quiescence; the driver asserts `max_versions_per_cell <= 2` here.
    pub stats_after_drop: VersionStats,
    /// Skip-list nodes retired through the version-reference protocol over the run.
    pub nodes_retired: u64,
}

/// Runs the `skiplist` scenario: `spec.threads` mixed workers drive a versioned
/// [`VcasSkipList`] with automatic reclamation under `policy` and the spec's
/// insert/delete/find mix. The mix's range slot issues **streaming** range scans
/// ([`MapSnapshotView::range_iter`]) 16 to 256 keys wide, and one operation in 512 is a
/// full scan-while-update iteration — while **one long-pinned reader** (the driver
/// thread) holds a snapshot view across the whole window.
///
/// The driver asserts, panicking with the spec's seed on violation:
///
/// * the pinned view re-answers every frozen range read exactly, via the streaming
///   iterator, no matter how the writers churn (scan-while-update frozenness);
/// * every streamed scan yields keys in strictly ascending order within its window;
/// * after the pin drops, collection reaches quiescence, version lists collapse to at
///   most 2 versions, exactly the surviving list is live (`len` nodes), and on
///   structure drop the node counters conserve (`created == retired + dropped`).
pub fn run_skiplist(spec: &WorkloadSpec, policy: ReclaimPolicy) -> SkipListResult {
    let camera = Camera::new();
    let list = Arc::new(VcasSkipList::new_versioned(&camera));
    camera.register_collectible(&list);
    let collector = policy.install(&camera);
    prefill(list.as_ref(), spec);
    let key_range = spec.key_range();

    // The long-pinned reader: freeze a set of range answers at the pin's timestamp.
    let view = list.view();
    let pinned_ts = view.timestamp();
    let mut probe_rng = StdRng::seed_from_u64(spec.seed ^ 0xD15C_0B3D);
    let probe_ranges: Vec<(Key, Key)> = (0..8)
        .map(|_| {
            let lo = probe_rng.gen_range(1..=key_range);
            (lo, lo.saturating_add(probe_rng.gen_range(RANGE_WIDTH) - 1))
        })
        .collect();
    let frozen: Vec<Vec<(Key, u64)>> =
        probe_ranges.iter().map(|&(lo, hi)| view.range(lo, hi)).collect();

    let (range_queries, range_keys, full_scans) =
        (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    let [updates] = {
        // Streams `[lo, hi]` from a fresh view, checked for strict key order inside the window.
        let stream = |lo: Key, hi: Key| {
            let mut last = None;
            let mut keys = 0;
            for (k, _) in list.view().range_iter(lo, hi) {
                assert!(
                    (lo..=hi).contains(&k) && last.map_or(true, |last| k > last),
                    "range scan [{lo}, {hi}] yielded {k} after {last:?} (seed={:#x})",
                    spec.seed
                );
                last = Some(k);
                keys += 1;
            }
            range_keys.fetch_add(keys, Ordering::Relaxed);
        };
        let mixed = mixed(list.as_ref(), spec.mix, spec, |_, key, rng| {
            stream(key, key.saturating_add(rng.gen_range(RANGE_WIDTH) - 1));
            range_queries.fetch_add(1, Ordering::Relaxed);
        });
        let op = |rng: &mut StdRng| {
            if rng.gen_range(0..SCAN_EVERY) == 0 {
                // Scan-while-update: a full streaming iteration over a fresh view.
                stream(0, Key::MAX);
                full_scans.fetch_add(1, Ordering::Relaxed);
                1
            } else {
                mixed(rng)
            }
        };

        // Re-validate the frozen range reads throughout the window, over the streaming path.
        let pool = Pool { threads: spec.threads.max(1), seed_offset: 0, op: &op };
        run_pools(spec, [pool], |check| {
            assert_eq!(
                view.timestamp(),
                pinned_ts,
                "check {check}: pinned view lost its timestamp (seed={:#x})",
                spec.seed
            );
            for (&(lo, hi), frozen) in probe_ranges.iter().zip(&frozen) {
                let streamed: Vec<(Key, u64)> = view.range_iter(lo, hi).collect();
                assert_eq!(
                    &streamed, frozen,
                    "check {check}: pinned range [{lo}, {hi}] changed under writers (seed={:#x})",
                    spec.seed
                );
            }
        })
    };

    // Pin drops; stop the background collector before the quiescence sweep.
    drop(view);
    drop(collector);
    let settled = settle(&camera, list, SKIPLIST_NODES, spec, |_| {});
    SkipListResult {
        updates,
        range_queries: range_queries.into_inner(),
        range_keys_streamed: range_keys.into_inner(),
        full_scans: full_scans.into_inner(),
        stats_after_drop: settled.stats,
        nodes_retired: settled.nodes_retired,
    }
}

/// Result of a `timetravel` scenario run (see [`run_timetravel`]).
#[derive(Debug, Clone, Copy)]
pub struct TimeTravelResult {
    /// Throughput of the update threads (inserts + deletes) during the timed window.
    pub updates: Throughput,
    /// Individual temporal queries the reader issued (as-of revalidations or diffs,
    /// depending on the mode).
    pub queries: u64,
    /// [`Camera::approx_live_versions`] at the end of the window, while every past instant
    /// was still pinned — the cost of retention.
    pub retained_versions_while_pinned: u64,
    /// [`Camera::approx_live_versions`] after the last pin dropped and collection reached
    /// quiescence — the proof that dropping pins releases their history.
    pub retained_versions_after_release: u64,
}

/// Runs the `timetravel` scenario: `spec.threads` update-heavy writers advance history on
/// a versioned [`Nbbst`] with amortized reclamation installed, while the driver holds a
/// ladder of 4 **pinned instants** ([`vcas_core::PinnedSnapshot`]) — each taken after a
/// burst of churn, each with its full state captured as a model — and re-validates them
/// in every slice of the window.
///
/// Per [`TimeTravelMode`], each reader round asserts (panicking with the spec's seed):
///
/// * `AsOf` — `view_at(ts)` replays each pinned instant's model exactly, forever;
/// * `Diff` — `diff(ts_i, ts_j)` over each adjacent pinned pair *reconciles*: applying
///   the diff to the older model reproduces the newer model.
///
/// After the window the driver drops every pin, sweeps to quiescence, and asserts the
/// pinned timestamps are now truncated (`view_at` fails), releasing them did not grow
/// history, and the node-conservation invariants of [`run_reclaim`] hold.
pub fn run_timetravel(spec: &WorkloadSpec, mode: TimeTravelMode) -> TimeTravelResult {
    let camera = Camera::new();
    let tree = Arc::new(Nbbst::new_versioned(&camera));
    camera.register_collectible(&tree);
    let collector = TIME_TRAVEL_POLICY.install(&camera);
    prefill(tree.as_ref(), spec);
    let key_range = spec.key_range();

    // Build the ladder of pins: churn, pin, capture the model — repeatedly. Each model is
    // the full frozen state at its pin's timestamp.
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7A1E_7A1E);
    let mut pins = Vec::new();
    let mut models: Vec<BTreeMap<Key, u64>> = Vec::new();
    for epoch in 0..EPOCHS {
        for _ in 0..256 {
            let key = rng.gen_range(1..=key_range);
            if rng.gen_bool(0.5) {
                tree.insert(key, key.wrapping_mul(epoch as u64 + 1));
            } else {
                tree.remove(key);
            }
        }
        let pin = camera.pin_snapshot();
        let view = tree.view_at(pin.handle().raw()).unwrap_or_else(|e| {
            panic!("pinned ts must be addressable: {e} (seed={:#x})", spec.seed)
        });
        models.push(view.iter().collect());
        pins.push(pin);
    }
    let timestamps: Vec<u64> = pins.iter().map(|p| p.handle().raw()).collect();

    // The reader: re-validate every pinned instant each round while the writers churn.
    let mut queries = 0u64;
    let [updates] = run_pools(
        spec,
        [Pool { threads: spec.threads.max(1), seed_offset: 0, op: &update_op(&*tree, spec) }],
        |check| match mode {
            TimeTravelMode::AsOf => {
                for (epoch, (&ts, model)) in timestamps.iter().zip(&models).enumerate() {
                    let view = tree.view_at(ts).unwrap_or_else(|e| {
                        panic!(
                            "check {check}: epoch {epoch} lost its history: {e} (seed={:#x})",
                            spec.seed
                        )
                    });
                    let replay: BTreeMap<Key, u64> = view.iter().collect();
                    assert_eq!(
                        &replay, model,
                        "check {check}: pinned as-of answer drifted under writers \
                     (epoch {epoch}, seed={:#x})",
                        spec.seed
                    );
                    queries += 1;
                }
            }
            TimeTravelMode::Diff => {
                for (pair, models) in timestamps.windows(2).zip(models.windows(2)) {
                    let d = tree.diff(pair[0], pair[1]).unwrap_or_else(|e| {
                        panic!("check {check}: diff lost history: {e} (seed={:#x})", spec.seed)
                    });
                    // Reconciliation: old model + diff = new model, key for key.
                    let mut patched = models[0].clone();
                    for (k, old) in &d.removed {
                        assert_eq!(
                            patched.remove(k),
                            Some(*old),
                            "check {check}: diff removed a key the old state lacked (seed={:#x})",
                            spec.seed
                        );
                    }
                    for (k, v) in &d.inserted {
                        assert_eq!(
                            patched.insert(*k, *v),
                            None,
                            "check {check}: diff inserted a key the old state had (seed={:#x})",
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
                        patched, models[1],
                        "check {check}: diff between pins does not reconcile (seed={:#x})",
                        spec.seed
                    );
                    queries += 1;
                }
            }
        },
    );
    let retained_versions_while_pinned = camera.approx_live_versions();

    // Release the history: every pin drops, the background collector (if any) stops, and
    // the quiescence sweep must reclaim everything the pins were holding.
    drop(pins);
    drop(collector);
    let settled = settle(&camera, tree, BST_NODES, spec, |tree| {
        // The pinned past is gone: the watermark moved past it, so as-of now *fails*
        // instead of answering from thin air.
        assert!(
            matches!(tree.view_at(timestamps[0]), Err(RetentionError::Truncated { .. })),
            "dropped pin's timestamp still addressable after quiescence (seed={:#x})",
            spec.seed
        );
    });
    assert!(
        settled.live_versions <= retained_versions_while_pinned,
        "releasing pins grew history (seed={:#x})",
        spec.seed
    );
    TimeTravelResult {
        updates,
        queries,
        retained_versions_while_pinned,
        retained_versions_after_release: settled.live_versions,
    }
}

/// The sorted-insertion workload of Fig. 2i: an ascending key sequence is split into chunks
/// of 1024 keys placed on a global work queue; threads grab chunks and insert them. Returns
/// the insert throughput (keys inserted per second over the whole run).
pub fn run_sorted_insert(map: &dyn AtomicRangeMap, total_keys: u64, threads: usize) -> Throughput {
    const CHUNK: u64 = 1024;
    let next_chunk = AtomicU64::new(0);
    // One call drains the queue, so the zero window below stops each worker after it.
    let drain = |_: &mut StdRng| {
        let mut inserted = 0;
        loop {
            let lo = next_chunk.fetch_add(1, Ordering::Relaxed) * CHUNK;
            if lo >= total_keys {
                return inserted;
            }
            let hi = (lo + CHUNK).min(total_keys);
            for k in lo..hi {
                map.insert(k + 1, k + 1);
            }
            inserted += hi - lo;
        }
    };
    let all_inserts = Mix { insert: 100, delete: 0, range: 0 };
    let spec =
        WorkloadSpec { duration_ms: 0, ..WorkloadSpec::new(threads, total_keys, all_inserts) };
    let [throughput] = run_pools(&spec, [Pool { threads, seed_offset: 0, op: &drain }], |_| {});
    throughput
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{bucket_count, KeySkew};
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
    #[should_panic(expected = "reproduce with seed=0xc0ffee")]
    fn runner_names_the_seed_when_a_worker_panics() {
        let mut spec = WorkloadSpec::new(1, 0, Mix::update_heavy());
        spec.duration_ms = 10;
        let steady = |_: &mut StdRng| 1;
        let faulty = |_: &mut StdRng| -> u64 { panic!("injected worker fault") };
        run_pools(
            &spec,
            [
                Pool { threads: 1, seed_offset: 0, op: &steady },
                Pool { threads: 1, seed_offset: 1000, op: &faulty },
            ],
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "injected reader fault")]
    fn a_failed_reader_check_stops_the_workers() {
        // The scope waits for every worker, so without the stop flag raised on unwind
        // this test would hang instead of panicking.
        let mut spec = WorkloadSpec::new(2, 0, Mix::update_heavy());
        spec.duration_ms = 10;
        let steady = |_: &mut StdRng| 1;
        run_pools(&spec, [Pool { threads: 2, seed_offset: 0, op: &steady }], |_| {
            panic!("injected reader fault")
        });
    }

    #[test]
    fn mixed_run_completes_and_reports_positive_throughput() {
        let mut spec = WorkloadSpec::new(2, 200, Mix::update_heavy_with_rq());
        spec.duration_ms = 50;
        spec.range_size = 16;
        let tree: Box<dyn AtomicRangeMap> = Box::new(Nbbst::new_versioned_default());
        let t = run_mixed(tree.as_ref(), &spec);
        assert!(t.operations > 0, "no operations completed (seed={:#x})", spec.seed);
        assert!(t.ops_per_sec() > 0.0, "zero throughput (seed={:#x})", spec.seed);
    }

    #[test]
    fn single_thread_update_heavy_run_elides_on_every_versioned_structure() {
        use vcas_structures::{HarrisList, VcasSkipList};
        let (bst, list, skip) = (Camera::new(), Camera::new(), Camera::new());
        let runs: [(&str, Box<dyn AtomicRangeMap>, &Arc<Camera>); 3] = [
            ("VcasBST", Box::new(Nbbst::new_versioned(&bst)), &bst),
            ("VcasList", Box::new(HarrisList::new_versioned(&list)), &list),
            ("VcasSkipList", Box::new(VcasSkipList::new_versioned(&skip)), &skip),
        ];
        for (name, map, camera) in runs {
            let mut spec = WorkloadSpec::new(1, 2_000, Mix::update_heavy());
            spec.duration_ms = 60;
            run_mixed(map.as_ref(), &spec);
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
        let tree = Nbbst::new_versioned_default();
        let r = run_dedicated(&tree, &spec, 1, 1);
        assert!(r.updates.operations > 0, "no updates completed (seed={:#x})", spec.seed);
        assert!(
            r.range_queries.operations > 0,
            "no range queries completed (seed={:#x})",
            spec.seed
        );
    }

    #[test]
    fn hashmap_run_completes_for_every_contender() {
        use vcas_structures::LockHashMap;
        let mut spec = WorkloadSpec::new(2, 200, Mix::update_heavy_with_rq()).with_seed(0xFEED);
        spec.duration_ms = 50;
        let buckets = bucket_count(spec.initial_size);
        let maps: Vec<Box<dyn SnapshotMap>> = vec![
            Box::new(VcasHashMap::new_versioned(&Camera::new(), buckets)),
            Box::new(VcasHashMap::new_plain(buckets)),
            Box::new(LockHashMap::new()),
        ];
        for map in maps {
            let name = map.name();
            let t = run_mixed(map.as_ref(), &spec);
            assert!(t.operations > 0, "{name}: no operations (seed={:#x})", spec.seed);
        }
    }

    #[test]
    fn skewed_hashmap_run_stays_in_universe() {
        let mut spec = WorkloadSpec::new(2, 100, Mix::update_heavy())
            .with_skew(KeySkew::Skewed { exponent: 2.0 });
        spec.duration_ms = 40;
        let map = VcasHashMap::new_versioned_default();
        let t = run_mixed(&map as &dyn SnapshotMap, &spec);
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
        let camera = Camera::new();
        let tree = Arc::new(Nbbst::new_versioned(&camera));
        let map = Arc::new(VcasHashMap::new_versioned(&camera, 64));
        let mut spec = WorkloadSpec::new(2, 200, Mix::update_heavy());
        spec.duration_ms = 50;
        let r = run_composed(tree, map, &spec, 1, 1);
        assert!(r.updates.operations > 0, "no updates completed (seed={:#x})", spec.seed);
        assert!(r.queries.operations > 0, "no queries completed (seed={:#x})", spec.seed);
        assert!(r.snapshots > 0, "no shared pins taken (seed={:#x})", spec.seed);
        // Each snapshot amortizes the whole batch of queries.
        let batch = (QUERIES_PER_VIEW + CROSS_PER_SNAPSHOT) as u64;
        assert_eq!(r.queries.operations, r.snapshots * batch, "seed={:#x}", spec.seed);
        // No view is left open after the run: nothing remains pinned.
        assert_eq!(camera.pinned_count(), 0);
    }

    #[test]
    #[should_panic(expected = "one camera")]
    fn composed_run_rejects_mismatched_cameras() {
        let tree = Arc::new(Nbbst::new_versioned_default());
        let map = Arc::new(VcasHashMap::new_versioned_default());
        let spec = WorkloadSpec::new(1, 10, Mix::update_heavy());
        let _ = run_composed(tree, map, &spec, 0, 0);
    }

    /// The three reclamation policies the scenario tests run under.
    const POLICIES: [ReclaimPolicy; 3] = [
        ReclaimPolicy::Disabled,
        ReclaimPolicy::Amortized { every_n_updates: 64, budget: 128 },
        ReclaimPolicy::Background { interval_ms: 2, budget: 512 },
    ];

    #[test]
    fn reclaim_run_bounds_versions_under_every_policy() {
        for policy in POLICIES {
            let mut spec = WorkloadSpec::new(2, 150, Mix::update_heavy());
            spec.duration_ms = 60;
            // run_reclaim asserts the frozen-view, bounded-versions, and node-conservation
            // invariants itself.
            let r = run_reclaim(&spec, policy);
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
            // nodes. (`settle` checks the exact count against the surviving tree; this is
            // the key-universe ceiling.)
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
        for policy in POLICIES {
            // 2 concurrent writers, a hot range slot, and scan-while-update.
            let mut spec = WorkloadSpec::new(2, 150, Mix { insert: 30, delete: 20, range: 10 });
            spec.duration_ms = 60;
            // run_skiplist asserts the frozen-range, stream-ordering, bounded-versions,
            // and node-conservation invariants itself.
            let r = run_skiplist(&spec, policy);
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
        for mode in TimeTravelMode::all() {
            let mut spec = WorkloadSpec::new(2, 150, Mix::update_heavy());
            spec.duration_ms = 60;
            // run_timetravel asserts the frozen-pin, diff-reconciliation,
            // history-release, and node-conservation invariants itself.
            let r = run_timetravel(&spec, mode);
            assert!(r.updates.operations > 0, "{mode:?}: no updates (seed={:#x})", spec.seed);
            // Every check visits every pinned instant (as-of) or every adjacent pair (diff).
            let per_check = match mode {
                TimeTravelMode::AsOf => EPOCHS,
                TimeTravelMode::Diff => EPOCHS - 1,
            };
            assert_eq!(r.queries, u64::from(READER_CHECKS) * per_check as u64, "{mode:?}");
            assert!(
                r.retained_versions_after_release <= r.retained_versions_while_pinned,
                "{mode:?}: releasing pins grew history (seed={:#x})",
                spec.seed
            );
        }
    }

    #[test]
    fn sorted_insert_inserts_every_key() {
        let tree = Nbbst::new_versioned_default();
        let t = run_sorted_insert(&tree, 4096, 2);
        assert_eq!(t.operations, 4096);
        assert_eq!(tree.view().len(), 4096);
    }
}
