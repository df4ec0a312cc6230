//! Figure/table runners. Each function prints TSV rows: one per data point.

use std::sync::Arc;

use vcas_core::Camera;
use vcas_ebr::pin;
use vcas_structures::queries::{
    run_hash_query_on_view, run_query_on_view, HashQueryKind, QueryKind,
};
use vcas_structures::traits::{AtomicRangeMap, SnapshotMap};
use vcas_structures::{
    DcBst, HarrisList, LockBst, LockHashMap, MsQueue, Nbbst, VcasHashMap, VcasSkipList,
};
use vcas_workload::{
    bucket_count, run_dedicated, run_mixed, run_sorted_insert, KeySkew, Mix, WorkloadSpec,
    MULTI_GET_BATCH,
};

/// Sizing and duration knobs (see crate docs for the environment variables).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Timed window per data point, milliseconds.
    pub duration_ms: u64,
    /// "Small" (cache-resident) structure size; stands in for the paper's 100K keys.
    pub small_size: u64,
    /// "Large" structure size; stands in for the paper's 100M keys.
    pub large_size: u64,
    /// Thread counts for the scalability figures.
    pub threads: Vec<usize>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            duration_ms: env_u64("VCAS_BENCH_MS", 200),
            small_size: env_u64("VCAS_BENCH_SMALL", 20_000),
            large_size: env_u64("VCAS_BENCH_LARGE", 200_000),
            threads: std::env::var("VCAS_BENCH_THREADS")
                .ok()
                .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
                .filter(|v: &Vec<usize>| !v.is_empty())
                .unwrap_or_else(|| vec![1, 2, 4, 8]),
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// The set of competing structures used in the scalability and rqsize figures.
fn contenders() -> Vec<(&'static str, Arc<dyn AtomicRangeMap>)> {
    vec![
        ("VcasBST", Arc::new(Nbbst::new_versioned(&Camera::new()))),
        ("BST(non-atomic-rq)", Arc::new(Nbbst::new_plain())),
        ("DcBST", Arc::new(DcBst::new())),
        ("LockBST", Arc::new(LockBst::new())),
        ("VcasList", Arc::new(HarrisList::new_versioned_default())),
        ("VcasSkipList", Arc::new(VcasSkipList::new_versioned_default())),
    ]
}

fn scalability(cfg: &ExperimentConfig, figure: &str, size: u64, mix: Mix, range_size: u64) {
    println!("# {figure}: mix={} size={size} rqsize={range_size}", mix.label());
    println!("{}", header_row(cfg));
    for (name, _) in contenders() {
        let mut row = vec![name.to_string()];
        for &threads in &cfg.threads {
            // A fresh structure per data point so runs do not contaminate each other.
            let fresh: Arc<dyn AtomicRangeMap> = fresh_by_name(name);
            let mut spec = WorkloadSpec::new(threads, size, mix);
            spec.duration_ms = cfg.duration_ms;
            spec.range_size = range_size;
            let tput = run_mixed(fresh.as_ref(), &spec);
            row.push(format!("{:.3}", tput.mops()));
        }
        println!("{}", row.join("\t"));
    }
    println!();
}

fn header_row(cfg: &ExperimentConfig) -> String {
    let mut cols = vec!["structure".to_string()];
    cols.extend(cfg.threads.iter().map(|t| format!("{t}thr_Mops")));
    cols.join("\t")
}

fn fresh_by_name(name: &str) -> Arc<dyn AtomicRangeMap> {
    match name {
        "VcasBST" => Arc::new(Nbbst::new_versioned(&Camera::new())),
        "BST(non-atomic-rq)" => Arc::new(Nbbst::new_plain()),
        "DcBST" => Arc::new(DcBst::new()),
        "LockBST" => Arc::new(LockBst::new()),
        "VcasList" => Arc::new(HarrisList::new_versioned_default()),
        "VcasSkipList" => Arc::new(VcasSkipList::new_versioned_default()),
        other => panic!("unknown structure {other}"),
    }
}

fn rqsize_sweep(cfg: &ExperimentConfig, figure: &str, names: &[&str], report_updates: bool) {
    let sizes = [8u64, 64, 256, 1024, 8 * 1024, 64 * 1024];
    println!(
        "# {figure}: dedicated update + RQ threads, 100K-key surrogate ({} keys), {}",
        cfg.small_size,
        if report_updates { "update throughput" } else { "RQ throughput" }
    );
    let mut cols = vec!["structure".to_string()];
    cols.extend(sizes.iter().map(|s| format!("rq{s}_Mops")));
    println!("{}", cols.join("\t"));
    for name in names {
        let mut row = vec![name.to_string()];
        for &rqsize in &sizes {
            let fresh = fresh_by_name(name);
            let mut spec =
                WorkloadSpec::new(0, cfg.small_size, Mix { insert: 50, delete: 50, range: 0 });
            spec.duration_ms = cfg.duration_ms;
            spec.range_size = rqsize.min(cfg.small_size);
            let half = (num_threads(cfg) / 2).max(1);
            let result = run_dedicated(fresh.as_ref(), &spec, half, half);
            let t = if report_updates { result.updates } else { result.range_queries };
            row.push(format!("{:.4}", t.mops()));
        }
        println!("{}", row.join("\t"));
    }
    println!();
}

fn num_threads(cfg: &ExperimentConfig) -> usize {
    cfg.threads.iter().copied().max().unwrap_or(2)
}

fn fig2i(cfg: &ExperimentConfig) {
    println!("# fig2i: sorted insert-only workload (chunks of 1024 from a shared work queue)");
    println!("structure\tkeys\tthreads\tMops");
    let keys = cfg.small_size;
    let threads = num_threads(cfg);
    for name in ["VcasBST", "DcBST", "LockBST"] {
        let map = fresh_by_name(name);
        let t = run_sorted_insert(map.as_ref(), keys, threads);
        println!("{name}\t{keys}\t{threads}\t{:.4}", t.mops());
    }
    // The balanced comparator (chromatic tree / VcasCT) is descoped in this reproduction;
    // contrast with a uniform-random insert-only run on the same structure instead, which
    // shows what balance would buy (see docs/benchmarking.md).
    let map: Box<dyn AtomicRangeMap> = Box::new(Nbbst::new_versioned(&Camera::new()));
    let mut spec = WorkloadSpec::new(threads, keys, Mix { insert: 100, delete: 0, range: 0 });
    spec.duration_ms = cfg.duration_ms;
    let t = run_mixed(map.as_ref(), &spec);
    println!("VcasBST(uniform-insert)\t{keys}\t{threads}\t{:.4}", t.mops());
    println!();
}

fn fig2m(cfg: &ExperimentConfig) {
    println!("# fig2m: overhead of vCAS — VcasBST vs BST, normalized to BST (=1.0)");
    println!("workload\tBST_Mops\tVcasBST_Mops\tnormalized");
    let threads = num_threads(cfg);
    let workloads = [
        ("lookup-heavy", Mix::lookup_heavy(), 0u64),
        ("update-heavy", Mix::update_heavy(), 0),
        ("update-heavy+rq", Mix::update_heavy_with_rq(), 1024),
    ];
    for (label, mix, rqsize) in workloads {
        let mut spec = WorkloadSpec::new(threads, cfg.small_size, mix);
        spec.duration_ms = cfg.duration_ms;
        spec.range_size = rqsize.max(16);
        let plain: Box<dyn AtomicRangeMap> = Box::new(Nbbst::new_plain());
        let plain_t = run_mixed(plain.as_ref(), &spec).mops();
        let vcas: Box<dyn AtomicRangeMap> = Box::new(Nbbst::new_versioned(&Camera::new()));
        let vcas_t = run_mixed(vcas.as_ref(), &spec).mops();
        println!("{label}\t{plain_t:.4}\t{vcas_t:.4}\t{:.4}", vcas_t / plain_t.max(1e-9));
    }
    println!();
}

fn fig3(cfg: &ExperimentConfig) {
    println!("# fig3: atomic multi-point queries (VcasBST) vs non-atomic (plain BST)");
    println!("query\tmode\tupdaters\tqueries_per_sec");
    let size = cfg.small_size;
    let threads = num_threads(cfg);
    let query_threads = (threads / 2).max(1);
    let update_threads_options = [0usize, (threads / 2).max(1)];

    for kind in QueryKind::all() {
        for &updaters in &update_threads_options {
            for atomic in [true, false] {
                let tree: Arc<dyn AtomicRangeMap> = if atomic {
                    Arc::new(Nbbst::new_versioned(&Camera::new()))
                } else {
                    Arc::new(Nbbst::new_plain())
                };
                let spec = WorkloadSpec::new(1, size, Mix::update_heavy());
                vcas_workload::driver::prefill(tree.as_ref(), &spec);
                let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
                let mut handles = Vec::new();
                for t in 0..updaters {
                    let tree = tree.clone();
                    let stop = stop.clone();
                    let key_range = spec.key_range();
                    handles.push(std::thread::spawn(move || {
                        use rand::{Rng, SeedableRng};
                        let mut rng = rand::rngs::StdRng::seed_from_u64(t as u64);
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            let k = rng.gen_range(1..=key_range);
                            if rng.gen_bool(0.5) {
                                tree.insert(k, k);
                            } else {
                                tree.remove(k);
                            }
                        }
                    }));
                }
                let queries_done = Arc::new(std::sync::atomic::AtomicU64::new(0));
                let mut qhandles = Vec::new();
                for t in 0..query_threads {
                    let tree = tree.clone();
                    let stop = stop.clone();
                    let queries_done = queries_done.clone();
                    let key_range = spec.key_range();
                    qhandles.push(std::thread::spawn(move || {
                        use rand::{Rng, SeedableRng};
                        let mut rng = rand::rngs::StdRng::seed_from_u64(900 + t as u64);
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            let start = rng.gen_range(1..=key_range);
                            let view = tree.snapshot_view();
                            std::hint::black_box(run_query_on_view(&*view, kind, start, key_range));
                            queries_done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }));
                }
                let window = std::time::Duration::from_millis(cfg.duration_ms);
                let start_time = std::time::Instant::now();
                std::thread::sleep(window);
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
                for h in handles.into_iter().chain(qhandles) {
                    h.join().unwrap();
                }
                let elapsed = start_time.elapsed().as_secs_f64();
                let qps = queries_done.load(std::sync::atomic::Ordering::Relaxed) as f64 / elapsed;
                println!(
                    "{}\t{}\t{}\t{:.1}",
                    kind.label(),
                    if atomic { "atomic(VcasBST)" } else { "non-atomic(BST)" },
                    updaters,
                    qps
                );
                vcas_ebr::flush();
            }
        }
    }
    println!();
}

/// Names of the hash-map contenders.
const HASHMAP_CONTENDERS: [&str; 3] = ["VcasHashMap", "HashMap(plain)", "LockHashMap"];

/// Builds a fresh hash-map contender by name, sized to `buckets` buckets.
fn fresh_hashmap(name: &str, buckets: usize) -> Arc<dyn SnapshotMap> {
    match name {
        "VcasHashMap" => Arc::new(VcasHashMap::new_versioned(&Camera::new(), buckets)),
        "HashMap(plain)" => Arc::new(VcasHashMap::new_plain(buckets)),
        "LockHashMap" => Arc::new(LockHashMap::new()),
        other => panic!("unknown hash map {other}"),
    }
}

/// Times `kind` against `map` for `window`, cycling the anchor through the 1-based key
/// universe `[1, key_range]`; returns queries per second.
fn timed_query_qps(
    map: &dyn SnapshotMap,
    kind: HashQueryKind,
    key_range: u64,
    window: std::time::Duration,
) -> f64 {
    let start = std::time::Instant::now();
    let mut queries = 0u64;
    let mut anchor = 1u64;
    loop {
        anchor = anchor % key_range + 1;
        std::hint::black_box(run_hash_query_on_view(
            &*map.snapshot_view(),
            kind,
            anchor,
            key_range,
        ));
        queries += 1;
        if start.elapsed() >= window {
            break;
        }
    }
    queries as f64 / start.elapsed().as_secs_f64()
}

/// The `hashmap` experiment: thread scalability of the mixed workload (with `multi_get`
/// batches in the range slot) under uniform and skewed keys, then multi-point query
/// throughput against one concurrent updater — VcasHashMap vs the unversioned table
/// (non-atomic multi-point reads) vs the lock-based baseline.
fn hashmap_experiment(cfg: &ExperimentConfig) {
    let mix = Mix { insert: 30, delete: 20, range: 10 };
    let size = cfg.small_size;
    let buckets = bucket_count(size);

    for skew in [KeySkew::Uniform, KeySkew::Skewed { exponent: 2.0 }] {
        println!(
            "# hashmap: mix={} size={size} buckets={buckets} batch={MULTI_GET_BATCH} skew={}",
            mix.label(),
            skew.label()
        );
        println!("{}", header_row(cfg));
        for name in HASHMAP_CONTENDERS {
            let mut row = vec![name.to_string()];
            for &threads in &cfg.threads {
                let fresh = fresh_hashmap(name, buckets);
                let mut spec = WorkloadSpec::new(threads, size, mix).with_skew(skew);
                spec.duration_ms = cfg.duration_ms;
                let tput = run_mixed(fresh.as_ref(), &spec);
                row.push(format!("{:.3}", tput.mops()));
            }
            println!("{}", row.join("\t"));
        }
        println!();
    }

    println!("# hashmap-queries: snapshot multi-point queries with 1 concurrent updater");
    println!("query\tstructure\tqueries_per_sec");
    for kind in HashQueryKind::all() {
        for name in HASHMAP_CONTENDERS {
            let map = fresh_hashmap(name, buckets);
            let spec = WorkloadSpec::new(1, size, mix);
            for k in 1..=size {
                map.insert(k, k);
            }
            let key_range = spec.key_range();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let updater = {
                let map = map.clone();
                let stop = stop.clone();
                let seed = spec.seed;
                std::thread::spawn(move || {
                    use rand::{Rng, SeedableRng};
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let k = rng.gen_range(1..=key_range);
                        if rng.gen_bool(0.5) {
                            map.insert(k, k);
                        } else {
                            map.remove(k);
                        }
                    }
                })
            };
            let window = std::time::Duration::from_millis(cfg.duration_ms);
            let qps = timed_query_qps(map.as_ref(), kind, key_range, window);
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            updater.join().unwrap();
            println!("{}\t{name}\t{qps:.1}", kind.label());
            vcas_ebr::flush();
        }
    }
    println!();
}

fn table1(cfg: &ExperimentConfig) {
    println!("# table1: query cost scaling (time per query vs parameter), validating the");
    println!("# asymptotic bounds of Table 1 — each row should grow roughly linearly in its");
    println!("# parameter and be insensitive to everything else.");
    println!("structure\tquery\tparam\tmicros_per_query");
    let _ = cfg;

    // Queue: i-th element is O(i + c).
    let queue = MsQueue::new_versioned_default();
    for i in 0..10_000u64 {
        queue.enqueue(i);
    }
    for i in [10usize, 100, 1000, 5000] {
        let start = std::time::Instant::now();
        let reps = 200;
        for _ in 0..reps {
            std::hint::black_box(queue.ith(i));
        }
        println!("VcasQueue\tith\t{i}\t{:.2}", start.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }

    // List: range(s, e) is O(m + p + c); vary the number of reported keys.
    let list = HarrisList::new_versioned_default();
    for k in 0..10_000u64 {
        list.insert(k, k);
    }
    for span in [16u64, 128, 1024, 4096] {
        let start = std::time::Instant::now();
        let reps = 100;
        for _ in 0..reps {
            std::hint::black_box(list.range(2000, 2000 + span));
        }
        println!(
            "VcasList\trange\t{span}\t{:.2}",
            start.elapsed().as_secs_f64() * 1e6 / reps as f64
        );
    }

    // BST: range(s, e) is O(h + K + c); multisearch is O(|L| * h + c).
    let tree = Nbbst::new_versioned_default();
    for k in 0..100_000u64 {
        tree.insert((k * 2654435761) % 1_000_000, k);
    }
    for span in [64u64, 512, 4096, 32768] {
        let start = std::time::Instant::now();
        let reps = 100;
        for _ in 0..reps {
            std::hint::black_box(tree.range(500_000, 500_000 + span));
        }
        println!(
            "VcasBST\trange\t{span}\t{:.2}",
            start.elapsed().as_secs_f64() * 1e6 / reps as f64
        );
    }
    for batch in [1usize, 4, 16, 64] {
        let keys: Vec<u64> = (0..batch as u64).map(|i| (i * 37) % 1_000_000).collect();
        let start = std::time::Instant::now();
        let reps = 200;
        for _ in 0..reps {
            std::hint::black_box(tree.multi_get(&keys));
        }
        println!(
            "VcasBST\tmultisearch\t{batch}\t{:.2}",
            start.elapsed().as_secs_f64() * 1e6 / reps as f64
        );
    }
    println!();
}

fn ablation(cfg: &ExperimentConfig) {
    use vcas_core::{DirectVersionedPtr, VersionInfo, VersionedNode, VersionedPtr};

    println!("# ablation (§5): indirect VersionedCas vs recorded-once direct versioning");
    println!("variant\tcas_per_sec\tsnapshot_read_per_sec");
    let iters = 200_000u64.max(cfg.duration_ms * 500);

    struct DirectNode {
        _payload: u64,
        version: VersionInfo<DirectNode>,
    }
    impl VersionedNode for DirectNode {
        fn version(&self) -> &VersionInfo<Self> {
            &self.version
        }
    }

    // Indirect.
    {
        let camera = Camera::new();
        let guard = pin();
        let mut nodes: Vec<vcas_ebr::Shared<'_, u64>> =
            (0..iters).map(|i| vcas_ebr::Owned::new(i).into_shared(&guard)).collect();
        let ptr: VersionedPtr<u64> = VersionedPtr::from_shared(nodes[0], &camera);
        let start = std::time::Instant::now();
        for i in 1..iters as usize {
            ptr.compare_exchange(nodes[i - 1], nodes[i], &guard);
            if i % 64 == 0 {
                camera.take_snapshot();
            }
        }
        let cas_rate = (iters - 1) as f64 / start.elapsed().as_secs_f64();
        let handle = camera.take_snapshot();
        let start = std::time::Instant::now();
        let reads = 100_000;
        for _ in 0..reads {
            std::hint::black_box(ptr.load_snapshot(handle, &guard));
        }
        let read_rate = reads as f64 / start.elapsed().as_secs_f64();
        println!("indirect(VersionedCas)\t{cas_rate:.0}\t{read_rate:.0}");
        for n in nodes.drain(..) {
            // SAFETY: every node was allocated by `Owned::new` above and is freed once,
            // here. Nothing reads it afterwards: the unmanaged cell's versions keep its
            // address as a plain word and never dereference it, not even on drop.
            unsafe { drop(n.into_owned()) };
        }
    }

    // Direct (recorded-once).
    {
        let camera = Camera::new();
        let guard = pin();
        let nodes: Vec<vcas_ebr::Shared<'_, DirectNode>> = (0..iters)
            .map(|i| {
                vcas_ebr::Owned::new(DirectNode { _payload: i, version: VersionInfo::new() })
                    .into_shared(&guard)
            })
            .collect();
        let ptr = DirectVersionedPtr::new(nodes[0], &camera);
        let start = std::time::Instant::now();
        for i in 1..iters as usize {
            ptr.compare_exchange(nodes[i - 1], nodes[i], &guard);
            if i % 64 == 0 {
                camera.take_snapshot();
            }
        }
        let cas_rate = (iters - 1) as f64 / start.elapsed().as_secs_f64();
        let handle = camera.take_snapshot();
        let start = std::time::Instant::now();
        let reads = 100_000;
        for _ in 0..reads {
            std::hint::black_box(ptr.load_snapshot(handle, &guard));
        }
        let read_rate = reads as f64 / start.elapsed().as_secs_f64();
        println!("direct(recorded-once)\t{cas_rate:.0}\t{read_rate:.0}");
        for n in nodes {
            // SAFETY: as above — allocated by `Owned::new`, freed once here, and the
            // direct cell (which has no destructor) never dereferences it again.
            unsafe { drop(n.into_owned()) };
        }
    }
    println!();
}

/// An experiment: its id and the function that runs it and prints its TSV rows.
pub type Experiment = (&'static str, fn(&ExperimentConfig));

/// Every experiment [`run_experiment`] dispatches, by id, in the order `all` runs them.
/// The `figures` usage text is printed from this list too, so what it advertises is what
/// runs. The paper's Fig. 2l has no counterpart here.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig2a", |cfg| {
        scalability(cfg, "fig2a lookup-heavy small", cfg.small_size, Mix::lookup_heavy(), 0)
    }),
    ("fig2b", |cfg| {
        scalability(cfg, "fig2b update-heavy small", cfg.small_size, Mix::update_heavy(), 0)
    }),
    ("fig2c", |cfg| {
        let mix = Mix::update_heavy_with_rq();
        scalability(cfg, "fig2c update-heavy+rq small", cfg.small_size, mix, 1024)
    }),
    ("fig2d", |cfg| {
        scalability(cfg, "fig2d lookup-heavy large", cfg.large_size, Mix::lookup_heavy(), 0)
    }),
    ("fig2e", |cfg| {
        scalability(cfg, "fig2e update-heavy large", cfg.large_size, Mix::update_heavy(), 0)
    }),
    ("fig2f", |cfg| {
        let mix = Mix::update_heavy_with_rq();
        scalability(cfg, "fig2f update-heavy+rq large", cfg.large_size, mix, 1024)
    }),
    ("fig2g", |cfg| rqsize_sweep(cfg, "fig2g", &["VcasBST", "DcBST", "LockBST"], true)),
    ("fig2h", |cfg| rqsize_sweep(cfg, "fig2h", &["VcasBST", "DcBST", "LockBST"], false)),
    ("fig2i", fig2i),
    ("fig2j", |cfg| rqsize_sweep(cfg, "fig2j [C++ counterpart]", &["VcasBST", "DcBST"], true)),
    ("fig2k", |cfg| rqsize_sweep(cfg, "fig2k [C++ counterpart]", &["VcasBST", "DcBST"], false)),
    ("fig2m", fig2m),
    ("fig3", fig3),
    ("hashmap", hashmap_experiment),
    ("table1", table1),
    ("ablation", ablation),
];

/// The accepted experiment ids, `|`-separated: every id in [`EXPERIMENTS`], then `all`.
pub fn experiment_ids() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).chain(["all"]).collect();
    ids.join("|")
}

/// Whether `id` is an experiment id from [`EXPERIMENTS`] or `all`.
pub fn is_experiment(id: &str) -> bool {
    id == "all" || EXPERIMENTS.iter().any(|&(name, _)| name == id)
}

/// Runs one experiment by id, or every one for `all`. An id that fails [`is_experiment`]
/// runs nothing.
pub fn run_experiment(id: &str, cfg: &ExperimentConfig) {
    for &(name, run) in EXPERIMENTS {
        if id == "all" || id == name {
            run(cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let cfg = ExperimentConfig::default();
        assert!(cfg.duration_ms > 0);
        assert!(cfg.small_size < cfg.large_size);
        assert!(!cfg.threads.is_empty());
    }

    #[test]
    fn experiment_ids_are_unique_and_listed() {
        let ids: std::collections::HashSet<_> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment id");
        assert!(!ids.contains("all"), "`all` is not an experiment of its own");
        let usage = experiment_ids();
        let listed: Vec<&str> = usage.split('|').collect();
        assert_eq!(listed.len(), EXPERIMENTS.len() + 1);
        assert!(listed.iter().all(|id| is_experiment(id)));
        assert!(!is_experiment("fig2l"));
    }

    #[test]
    fn contenders_have_unique_names() {
        let names: std::collections::HashSet<_> = contenders().iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), contenders().len());
    }
}
