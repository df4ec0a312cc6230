//! The repository benchmark: four named workloads over the versioned BST and hash map,
//! every operation checked against an exact oracle. See README.md for the workloads,
//! the metrics and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). The lines before it print every metric with its unit and sample count.

mod census;
mod engine;
mod hist;
mod trace;

use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::time::Instant;

use vcas_core::{Camera, ReclaimPolicy};
use vcas_structures::bst::Nbbst;
use vcas_structures::hashmap::VcasHashMap;

use engine::{Ctl, Mix, Oracle, Probes, Progress, Rng, Target, Worker};
use trace::{median, Tracer};

#[global_allocator]
static ALLOC: census::Census = census::Census;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    BstUpdate,
    BstLookupLarge,
    BstRqUnderUpdates,
    HashMixed,
}

/// One workload's shape (README.md explains why each was chosen).
struct Spec {
    name: &'static str,
    kind: Kind,
    /// Keys prefilled.
    keys: u64,
    /// Keys are drawn uniformly from `0..range`.
    range: u64,
    /// Mix of the point-operation thread.
    mix: Mix,
    amortized: bool,
    /// Set-ups per run, half before and half after the window; `setup_s` is the median
    /// of their quicker half.
    setups: usize,
    /// Point operations of the warm-up that ends each set-up.
    warmup_ops: u64,
    /// Every `stride`-th point operation is timed: a clock read costs a noticeable
    /// share of a sub-microsecond operation. Every range query is timed.
    stride: u64,
    /// Listed in `BENCHMARK.json`: the JSON result must hold every metric of
    /// `END_TO_END` or `PER_LAYER`.
    gated: bool,
}

impl Spec {
    /// Does the workload take snapshots? `bst-update` and `bst-lookup-large` must not:
    /// a snapshot advances the timestamp and turns elision off.
    fn snapshots(&self) -> bool {
        matches!(self.kind, Kind::BstRqUnderUpdates | Kind::HashMixed)
    }
}

/// The paper's key range for a set of `n` keys under 30% inserts / 20% removes: the
/// size stays at `n`.
const fn paper_range(n: u64) -> u64 {
    n * 50 / 30
}

const SPECS: [Spec; 4] = [
    Spec {
        name: "bst-update",
        kind: Kind::BstUpdate,
        keys: 4096,
        range: paper_range(4096),
        mix: Mix { insert: 30, remove: 20, contains: 50 },
        amortized: true,
        setups: 11,
        warmup_ops: 400_000,
        stride: 16,
        gated: true,
    },
    Spec {
        name: "bst-lookup-large",
        kind: Kind::BstLookupLarge,
        keys: 1 << 20,
        range: paper_range(1 << 20),
        mix: Mix { insert: 3, remove: 2, contains: 95 },
        amortized: false,
        setups: 3,
        warmup_ops: 100_000,
        stride: 4,
        gated: true,
    },
    Spec {
        name: "bst-rq-under-updates",
        kind: Kind::BstRqUnderUpdates,
        keys: 1 << 16,
        range: 1 << 17,
        mix: Mix { insert: 50, remove: 50, contains: 0 },
        amortized: true,
        setups: 3,
        warmup_ops: 200_000,
        stride: 8,
        gated: false,
    },
    Spec {
        name: "hash-mixed",
        kind: Kind::HashMixed,
        keys: 4096,
        range: paper_range(4096),
        mix: Mix { insert: 30, remove: 20, contains: 45 },
        amortized: true,
        setups: 21,
        warmup_ops: 400_000,
        stride: 16,
        gated: true,
    },
];

/// Range queries of the `bst-rq-under-updates` warm-up.
const WARMUP_QUERIES: u64 = 400;
/// Offsets a `multi_get` may start at (`hash-mixed`).
const MULTI_KEYS: usize = 1 << 16;
const RANGE_STARTS: usize = 1 << 16;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, Some(false));
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        match flag.as_str() {
            "--workload" => workload = SPECS.iter().find(|s| s.name == value.as_str()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = ["0", "1"].contains(&value.as_str()).then(|| value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    Ok(Args {
        spec: workload.ok_or_else(|| format!("--workload must be one of {names:?}"))?,
        seed: seed.ok_or("--seed must be an unsigned integer")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        trace: trace.ok_or("--trace must be 0 or 1")?,
    })
}

/// Every input of a run, generated from the seed before any set-up starts.
struct Inputs {
    prefill: Vec<u64>,
    tape: engine::Tape,
    multi_keys: Vec<u64>,
    range_starts: Vec<u64>,
}

impl Inputs {
    fn new(spec: &Spec, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let mut prefill = engine::shuffled(spec.range, &mut rng);
        prefill.truncate(spec.keys as usize);
        let hash = spec.kind == Kind::HashMixed;
        let rq = spec.kind == Kind::BstRqUnderUpdates;
        let multi_keys: Vec<u64> =
            (0..if hash { MULTI_KEYS } else { 0 }).map(|_| rng.below(spec.range)).collect();
        let tape = engine::tape(&mut rng, spec.mix, spec.range, multi_keys.len());
        let range_starts = (0..if rq { RANGE_STARTS } else { 0 })
            .map(|_| rng.below(spec.range - engine::RANGE_WIDTH + 1))
            .collect();
        Inputs { prefill, tape, multi_keys, range_starts }
    }
}

/// Metrics in print order: name, value, unit, and a note such as the sample count.
#[derive(Default)]
struct Out {
    metrics: Vec<(String, f64, &'static str, String)>,
}

/// The metrics of the JSON result with `--trace 0`, in `BENCHMARK.json`'s order. The
/// result of a gated workload must hold every metric `BENCHMARK.json` lists, so these
/// are the ones all three gated workloads report (`bst-rq-under-updates` has no
/// lookups and leaves the `lookup_*` ones out). The rest are printed as `metric` lines
/// only: `query_*` and `query_per_s` (no queries on `bst-update` or `bst-lookup-large`)
/// and `update_p99_us`, which sits in a sparse stretch of the update latency
/// distribution (amortized reclamation slices, first-touch allocations), so the host's
/// load moves it far more than the median: over ten seeds it spread by 0.31
/// (`bst-update`) and 0.28 (`bst-lookup-large`) of its median.
const END_TO_END: [&str; 7] = [
    "throughput_mops",
    "setup_s",
    "update_p50_us",
    "lookup_p50_us",
    "lookup_p99_us",
    "bytes_per_key",
    "end_bytes_per_key",
];

/// The metrics of the JSON result with `--trace 1`: the per-layer metrics all three
/// gated workloads report. Printed only: `camera.*` (no snapshots on `bst-update` or
/// `bst-lookup-large`), `reclaim.collect_slice_ns` (reclamation is off on
/// `bst-lookup-large`), `bst.*`, `hash.*` and `view.*` (one structure each).
const PER_LAYER: [&str; 14] = [
    "ebr.pin_ns",
    "ebr.deferred_per_update",
    "ebr.collected_frac",
    "ebr.pending_end",
    "core.versions_per_update",
    "core.elided_frac",
    "alloc.allocs_per_update",
    "alloc.frees_per_update",
    "reclaim.retired_per_update",
    "reclaim.live_versions_per_key_end",
    "reclaim.versions_per_cell_end",
    "reclaim.max_versions_per_cell_end",
    "bench.loop_ns",
    "trace.overhead_frac",
];

impl Out {
    fn push(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push((name.to_string(), value, unit, note));
    }
}

/// One phase's jobs: the point-operation thread and, for `bst-rq-under-updates`, the
/// range-query thread.
#[allow(clippy::too_many_arguments)]
fn jobs<'a, M: Target, const TRACED: bool>(
    m: &'a M,
    spec: &Spec,
    inputs: &'a Inputs,
    oracle: &'a mut Oracle,
    workers: &'a mut [Worker; 2],
    ctls: [Ctl<'a>; 2],
    camera: &'a Arc<Camera>,
) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
    let [w0, w1] = workers;
    let [c0, c1] = ctls;
    let amortized = spec.amortized.then_some(&**camera);
    let snapshots = spec.snapshots().then_some(camera);
    let rq = m.tree().filter(|_| spec.kind == Kind::BstRqUnderUpdates);
    // The range-query thread probes snapshot pinning; otherwise the one thread probes
    // every layer that its workload uses.
    let p0 = Probes {
        ebr_pin: true,
        pin_snapshot: snapshots.filter(|_| rq.is_none()),
        collect_slice: amortized,
    };
    let mut jobs: Vec<Box<dyn FnOnce() + Send + 'a>> = vec![Box::new(move || {
        engine::point_ops::<M, TRACED>(m, &inputs.tape, &inputs.multi_keys, oracle, w0, &c0, p0)
    })];
    if let Some(tree) = rq {
        let p1 = Probes { pin_snapshot: snapshots, ..Probes::default() };
        jobs.push(Box::new(move || {
            engine::range_queries::<TRACED>(tree, &inputs.range_starts, w1, &c1, p1)
        }));
    }
    jobs
}

/// Counters of the layers, read at the edges of the traced window.
struct Counters {
    ebr: vcas_ebr::DomainStats,
    snapshots: u64,
    created: u64,
    elided: u64,
    retired: u64,
}

impl Counters {
    fn read(camera: &Camera) -> Counters {
        Counters {
            ebr: vcas_ebr::default_domain().stats(),
            snapshots: camera.snapshots_taken(),
            created: camera.versions_created(),
            elided: camera.versions_elided(),
            retired: camera.versions_retired(),
        }
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    out: Out,
}

/// The quicker half of the set-up times. Like the window's quiet slices, it keeps the
/// host's slow bursts out of `setup_s`: a burst lasts seconds to tens of seconds, long
/// enough to cover every set-up before or after the window, and it only ever slows a
/// set-up down.
fn quicker_half(setup_s: &mut [f64]) -> &mut [f64] {
    setup_s.sort_by(f64::total_cmp);
    let n = setup_s.len().div_ceil(2);
    &mut setup_s[..n]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A structure after one set-up.
struct Built<M> {
    camera: Arc<Camera>,
    m: Arc<M>,
    /// Heap bytes held before construction.
    base: i64,
    /// Heap bytes the prefill added.
    prefill_bytes: i64,
    /// Time of the set-up: construction, prefill and a fixed-count warm-up.
    seconds: f64,
}

fn set_up<M: Target>(
    spec: &Spec,
    inputs: &Inputs,
    policy: ReclaimPolicy,
    oracle: &mut Oracle,
    workers: &mut [Worker; 2],
    failed: &mut u64,
) -> Built<M> {
    let base = census::live_bytes();
    let t0 = Instant::now();
    let camera = Camera::new();
    let m = Arc::new(M::build(&camera, spec.keys));
    camera.register_collectible(&m);
    assert!(policy.install(&camera).is_none(), "no collector thread is started");
    oracle.clear();
    for &k in &inputs.prefill {
        *failed += !m.insert(k) as u64;
        oracle.set(k, true);
    }
    let prefill_bytes = census::live_bytes() - base;
    let never = AtomicBool::new(false);
    let progress = [Progress::default(), Progress::default()];
    let slice = AtomicUsize::new(0);
    let ctl = |i: usize, limit| Ctl {
        stop: &never,
        progress: &progress[i].0,
        slice: &slice,
        limit,
        stride: spec.stride,
    };
    let ctls = [ctl(0, spec.warmup_ops), ctl(1, WARMUP_QUERIES)];
    engine::run_jobs(jobs::<M, false>(&m, spec, inputs, oracle, workers, ctls, &camera));
    let seconds = t0.elapsed().as_secs_f64();
    for w in workers.iter_mut() {
        *failed += w.failed;
        w.reset();
    }
    Built { camera, m, base, prefill_bytes, seconds }
}

fn run<M: Target>(a: &Args) -> Report {
    let spec = a.spec;
    let inputs = Inputs::new(spec, a.seed);
    let mut oracle = Oracle::new(spec.range);
    let slices = engine::slices_for(a.seconds);
    let mut workers = [Worker::new(slices), Worker::new(slices)];
    let nthreads = 1 + (spec.kind == Kind::BstRqUnderUpdates) as usize;
    let policy = if spec.amortized {
        ReclaimPolicy::Amortized { every_n_updates: 128, budget: 64 }
    } else {
        ReclaimPolicy::Disabled
    };
    let mut failed = 0u64;

    // Set-up, repeated: the first half of the set-ups runs before the window and the
    // last of them is the structure measured; the second half runs after the window
    // (untraced runs only), so that the set-ups see the host at two moments half a
    // minute apart.
    let mut setup_s = Vec::new();
    let mut built: Option<Built<M>> = None;
    for _ in 0..spec.setups.div_ceil(2) {
        if built.take().is_some() {
            vcas_ebr::drain();
        }
        let b = set_up::<M>(spec, &inputs, policy, &mut oracle, &mut workers, &mut failed);
        setup_s.push(b.seconds);
        built = Some(b);
    }
    let Built { camera, m, base, prefill_bytes, .. } = built.expect("at least one set-up");

    // The timed window; a traced run first measures an untraced half for the overhead.
    let mut phase = |seconds: f64, traced: bool, workers: &mut [Worker; 2]| {
        let stop = AtomicBool::new(false);
        let progress = [Progress::default(), Progress::default()];
        let slice = AtomicUsize::new(0);
        let ctl = |i: usize| Ctl {
            stop: &stop,
            progress: &progress[i].0,
            slice: &slice,
            limit: u64::MAX,
            stride: spec.stride,
        };
        let ctls = [ctl(0), ctl(1)];
        let jobs = if traced {
            let epoch = Instant::now();
            workers.iter_mut().for_each(|w| w.tracer = Some(Tracer::new(epoch)));
            jobs::<M, true>(&m, spec, &inputs, &mut oracle, workers, ctls, &camera)
        } else {
            jobs::<M, false>(&m, spec, &inputs, &mut oracle, workers, ctls, &camera)
        };
        engine::window(seconds, &stop, &slice, &progress, jobs)
    };
    let all: Vec<usize> = (0..nthreads).collect();
    let mut out = Out::default();
    let mut tally = |workers: &[Worker; 2]| {
        failed += workers.iter().map(|w| w.failed).sum::<u64>();
        workers.iter().map(|w| w.ops).sum::<u64>()
    };
    let attempted;
    if !a.trace {
        let win = phase(a.seconds, false, &mut workers);
        attempted = tally(&workers);
        let live = oracle.live as f64;
        let end_bytes = (census::live_bytes() - base) as f64;
        end_to_end(&mut out, spec, &win, &all, &workers, prefill_bytes, end_bytes, live);
    } else {
        let half = a.seconds / 2.0;
        let untraced = phase(half, false, &mut workers).rate_quiet(&all);
        let untraced_ops = tally(&workers);
        workers.iter_mut().for_each(Worker::reset);
        let before = Counters::read(&camera);
        let win = phase(half, true, &mut workers);
        let after = Counters::read(&camera);
        attempted = untraced_ops + tally(&workers);
        let traced = win.rate_quiet(&all);
        per_layer::<M>(&mut out, spec, &m, &camera, &workers, &before, &after, oracle.live);
        out.push(
            "trace.overhead_frac",
            1.0 - ratio(traced, untraced),
            "frac",
            format!("traced {:.4} vs untraced {:.4} Mop/s", traced / 1e6, untraced / 1e6),
        );
        let tracers: Vec<(&str, &Tracer)> = ["ops", "queries"]
            .into_iter()
            .zip(&workers)
            .filter_map(|(name, w)| w.tracer.as_ref().map(|t| (name, t)))
            .collect();
        let path = format!("perfbench/traces/{}-seed{}.tsv", spec.name, a.seed);
        match Tracer::write(&tracers, std::path::Path::new(&path)) {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }

    // After the window: the structure must hold exactly the oracle's keys.
    let expected: Vec<(u64, u64)> = oracle.keys().into_iter().map(|k| (k, k)).collect();
    let contents_ok = m.contents() == expected;
    if !contents_ok {
        eprintln!("perfbench: contents differ from the oracle after the window");
    }
    if !a.trace {
        drop((camera, m));
        for _ in setup_s.len()..spec.setups {
            vcas_ebr::drain();
            let b = set_up::<M>(spec, &inputs, policy, &mut oracle, &mut workers, &mut failed);
            setup_s.push(b.seconds);
        }
        let n = setup_s.len();
        let quick = quicker_half(&mut setup_s);
        let note = format!("median of the quicker half of {n} set-ups");
        out.push("setup_s", median(quick).expect("set-ups ran"), "s", note);
    }
    println!(
        "metric failed_op_frac {} frac (failed={failed}, attempted={attempted})",
        ratio(failed as f64, attempted as f64)
    );
    Report { correct: contents_ok && failed == 0, attempted, failed, out }
}

#[allow(clippy::too_many_arguments)]
fn end_to_end(
    out: &mut Out,
    spec: &Spec,
    win: &engine::Window,
    all: &[usize],
    workers: &[Worker; 2],
    prefill_bytes: i64,
    end_bytes: f64,
    live: f64,
) {
    let quiet = win.quiet();
    let slices = format!(
        "median of the {} quiet slices of {} over {:.2} s",
        quiet.len(),
        win.slices.len(),
        win.seconds
    );
    out.push("throughput_mops", win.rate_quiet(all) / 1e6, "Mop/s", slices.clone());
    for (class, name) in
        [(engine::UPDATE, "update"), (engine::LOOKUP, "lookup"), (engine::QUERY, "query")]
    {
        let mut h = hist::Histogram::new();
        for w in workers {
            quiet.iter().for_each(|&i| h.merge(&w.hist[i][class]));
        }
        for (q, tag) in [(0.5, "p50"), (0.99, "p99")] {
            if let Some(ns) = h.quantile(q) {
                let beyond = (h.count() as f64 * (1.0 - q)).floor();
                let note = format!("samples={} beyond={beyond}", h.count());
                out.push(&format!("{name}_{tag}_us"), ns / 1e3, "us", note);
            }
        }
    }
    if spec.kind == Kind::BstRqUnderUpdates {
        out.push("query_per_s", win.rate_quiet(&[1]), "1/s", slices);
    }
    let note = format!("{prefill_bytes} B over {} keys", spec.keys);
    out.push("bytes_per_key", prefill_bytes as f64 / spec.keys as f64, "B", note);
    let note = format!("{end_bytes} B over {live} live keys");
    out.push("end_bytes_per_key", end_bytes / live, "B", note);
}

#[allow(clippy::too_many_arguments)]
fn per_layer<M: Target>(
    out: &mut Out,
    spec: &Spec,
    m: &M,
    camera: &Camera,
    workers: &[Worker; 2],
    before: &Counters,
    after: &Counters,
    live: u64,
) {
    let mut t = Tracer::new(Instant::now());
    let mut updates = 0u64;
    let mut updates_ok = 0u64;
    let mut queries = 0u64;
    for w in workers {
        updates += w.updates;
        updates_ok += w.updates_ok;
        queries += w.queries;
        if let Some(wt) = &w.tracer {
            t.merge(wt);
        }
    }
    let ok = updates_ok as f64;
    let probe = |out: &mut Out, samples: &mut Vec<f64>, name: &str| {
        let n = samples.len();
        if let Some(v) = median(samples) {
            out.push(name, v, "ns", format!("probe, median of {n} samples"));
        }
    };
    probe(out, &mut t.probes[trace::PROBE_EBR_PIN], "ebr.pin_ns");
    let deferred = (after.ebr.deferred - before.ebr.deferred) as f64;
    let collected = (after.ebr.collected - before.ebr.collected) as f64;
    out.push(
        "ebr.deferred_per_update",
        ratio(deferred, ok),
        "count",
        format!("{deferred} deferred"),
    );
    out.push(
        "ebr.collected_frac",
        ratio(collected, deferred),
        "frac",
        format!("{collected} collected"),
    );
    out.push("ebr.pending_end", after.ebr.pending as f64, "count", String::new());
    if spec.snapshots() {
        probe(out, &mut t.probes[trace::PROBE_PIN_SNAPSHOT], "camera.pin_snapshot_ns");
        // Snapshots the probes took are not the queries'.
        let probe_snaps = 4 * t.probes[trace::PROBE_PIN_SNAPSHOT].len() as u64;
        let snaps = (after.snapshots - before.snapshots).saturating_sub(probe_snaps) as f64;
        out.push(
            "camera.snapshots_per_query",
            ratio(snaps, queries as f64),
            "count",
            format!("{snaps} snapshots, {queries} queries"),
        );
    }
    let created = (after.created - before.created) as f64;
    let elided = (after.elided - before.elided) as f64;
    out.push(
        "core.versions_per_update",
        ratio(created, ok),
        "count",
        format!("{created} created, {ok} updates"),
    );
    out.push("core.elided_frac", ratio(elided, ok), "frac", format!("{elided} elided"));
    let tried = updates as f64;
    out.push(
        "alloc.allocs_per_update",
        ratio(t.update_allocs as f64, tried),
        "count",
        format!("{tried} updates attempted"),
    );
    out.push("alloc.frees_per_update", ratio(t.update_frees as f64, tried), "count", String::new());
    if spec.amortized {
        probe(out, &mut t.probes[trace::PROBE_COLLECT_SLICE], "reclaim.collect_slice_ns");
    }
    let retired = (after.retired - before.retired) as f64;
    out.push("reclaim.retired_per_update", ratio(retired, ok), "count", String::new());
    let live_f = live as f64;
    out.push(
        "reclaim.live_versions_per_key_end",
        ratio(camera.approx_live_versions() as f64, live_f),
        "count",
        String::new(),
    );
    let stats = m.version_stats(&vcas_ebr::pin());
    out.push(
        "reclaim.versions_per_cell_end",
        ratio(stats.versions as f64, stats.cells as f64),
        "count",
        format!("{} cells", stats.cells),
    );
    out.push(
        "reclaim.max_versions_per_cell_end",
        stats.max_versions_per_cell as f64,
        "count",
        String::new(),
    );
    let layer = M::LAYER;
    for (span, name) in [
        (trace::INSERT, "insert"),
        (trace::REMOVE, "remove"),
        (trace::CONTAINS, "contains"),
        (trace::MULTI_GET, "multi_get"),
        (trace::VIEW_OPEN, "view.open"),
        (trace::VIEW_RANGE, "view.range"),
        (trace::VIEW_CLOSE, "view.close"),
    ] {
        if let Some(mean) = t.spans[span].mean() {
            let full = if name.starts_with("view.") {
                format!("{name}_ns")
            } else {
                format!("{layer}.{name}_ns")
            };
            out.push(&full, mean, "ns", format!("mean of {} spans", t.spans[span].count));
        }
    }
    if let Some(range) = t.spans[trace::VIEW_RANGE].mean() {
        let per_query = ratio(t.range_keys as f64, t.spans[trace::VIEW_RANGE].count as f64);
        out.push(
            "view.range_ns_per_key",
            ratio(range, per_query),
            "ns",
            format!("{per_query:.1} keys per range"),
        );
    }
    if let Some(tree) = m.tree() {
        out.push(
            "bst.update_ok_frac",
            ratio(ok, updates as f64),
            "frac",
            format!("{updates} updates"),
        );
        out.push("bst.height_end", tree.height() as f64, "levels", String::new());
    }
    let iters = t.spans[trace::ITER].count;
    out.push(
        "bench.loop_ns",
        ratio(t.self_ns as f64, iters as f64),
        "ns",
        format!("self time over {iters} iterations"),
    );
}

fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("nproc={nproc} cpu=\"{}\"", cpu_model())
}

#[cfg(target_arch = "x86_64")]
#[allow(unused_unsafe)] // `__cpuid` is an unsafe fn on older toolchains
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: `cpuid` exists on every x86-64 processor; leaves above the reported
    // maximum are not queried.
    let max = unsafe { __cpuid(0x8000_0000) }.eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::new();
    for leaf in 0x8000_0002..=0x8000_0004u32 {
        // SAFETY: as above; `leaf` is at most the reported maximum.
        let r = unsafe { __cpuid(leaf) };
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes).trim_matches(char::from(0)).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} {}",
        args.spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        host()
    );
    let report = match args.spec.kind {
        Kind::HashMixed => run::<VcasHashMap>(&args),
        _ => run::<Nbbst>(&args),
    };
    for (name, value, unit, note) in &report.out.metrics {
        println!("metric {name} {value} {unit} ({note})");
    }
    let gated: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = Vec::new();
    for &name in gated {
        let Some((_, value, unit, _)) = report.out.metrics.iter().find(|m| m.0 == name) else {
            if args.spec.gated {
                eprintln!("perfbench: {} did not report {name}", args.spec.name);
                std::process::exit(1);
            }
            continue;
        };
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        json.join(", ")
    );
}
