//! Inputs, the exact oracle, the closed operation loops and the timed window.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use vcas_core::{Camera, Collectible};
use vcas_structures::bst::Nbbst;
use vcas_structures::hashmap::VcasHashMap;

use crate::census;
use crate::hist::Histogram;
use crate::trace::{self, Tracer};

/// splitmix64: every input of a run derives from the `--seed` through this generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0xA076_1D64_78BD_642F)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Every key of `0..range` in a seeded random order (Fisher–Yates); a prefill takes a
/// prefix, so it needs no rejection sampling.
pub fn shuffled(range: u64, rng: &mut Rng) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..range).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    keys
}

// Operation kinds, packed with the key into one tape word.
pub const INSERT: u64 = 0;
pub const REMOVE: u64 = 1;
pub const CONTAINS: u64 = 2;
pub const MULTI_GET: u64 = 3;
const KEY_BITS: u32 = 62;
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;

/// Operation mix in percent; what is left after insert, remove and contains is
/// `multi_get`.
#[derive(Clone, Copy)]
pub struct Mix {
    pub insert: u64,
    pub remove: u64,
    pub contains: u64,
}

/// Keys per `multi_get`.
pub const MULTI_GET_KEYS: usize = 16;
/// Operations per tape. A power of two.
pub const TAPE_LEN: usize = 1 << 18;

/// A pre-generated operation stream with uniform keys over `0..range`. A `multi_get`
/// word holds an offset into `multi_keys` instead of a key.
///
/// A worker cycles through its tape. Each pass adds a fixed offset to every key
/// (modulo the range), so no pass replays the one before: a replay would repeat
/// inserts of keys it had just inserted and removes of keys it had just removed, and
/// most updates would fail.
pub struct Tape {
    ops: Vec<u64>,
    range: u64,
    step: u64,
}

impl Tape {
    /// Key offset of pass `pass`.
    fn shift(&self, pass: u64) -> u64 {
        (pass as u128 * self.step as u128 % self.range as u128) as u64
    }
}

pub fn tape(rng: &mut Rng, mix: Mix, range: u64, multi_keys: usize) -> Tape {
    let ops = (0..TAPE_LEN)
        .map(|_| {
            let roll = rng.below(100);
            let (kind, arg) = if roll < mix.insert {
                (INSERT, rng.below(range))
            } else if roll < mix.insert + mix.remove {
                (REMOVE, rng.below(range))
            } else if roll < mix.insert + mix.remove + mix.contains {
                (CONTAINS, rng.below(range))
            } else {
                (MULTI_GET, rng.below((multi_keys - MULTI_GET_KEYS) as u64))
            };
            kind << KEY_BITS | arg
        })
        .collect();
    // A golden-ratio step spreads consecutive passes far apart.
    Tape { ops, range, step: (range as f64 * 0.618_033_988_7) as u64 | 1 }
}

/// Exact presence oracle over `0..range`, kept by the only thread that writes.
pub struct Oracle {
    bits: Vec<u64>,
    pub live: u64,
}

impl Oracle {
    pub fn new(range: u64) -> Oracle {
        Oracle { bits: vec![0; range.div_ceil(64) as usize], live: 0 }
    }

    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.live = 0;
    }

    #[inline]
    pub fn get(&self, k: u64) -> bool {
        self.bits[(k / 64) as usize] >> (k % 64) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, k: u64, present: bool) {
        if self.get(k) != present {
            self.bits[(k / 64) as usize] ^= 1 << (k % 64);
            if present {
                self.live += 1;
            } else {
                self.live -= 1;
            }
        }
    }

    /// The keys present, ascending.
    pub fn keys(&self) -> Vec<u64> {
        (0..self.bits.len() as u64 * 64).filter(|&k| self.get(k)).collect()
    }
}

/// The structure under test, as the benchmark builds and calls it. Values always equal
/// keys.
pub trait Target: Collectible + Send + Sync + 'static {
    /// Layer name used in span metrics (`bst.insert_ns`, `hash.insert_ns`, ...).
    const LAYER: &'static str;
    /// A versioned instance on `camera`, sized for `keys` keys.
    fn build(camera: &Arc<Camera>, keys: u64) -> Self;
    /// The tree, when the structure is one: range queries and its height need it.
    fn tree(&self) -> Option<&Nbbst>;
    fn insert(&self, k: u64) -> bool;
    fn remove(&self, k: u64) -> bool;
    fn contains(&self, k: u64) -> bool;
    fn multi_get(&self, keys: &[u64]) -> Vec<Option<u64>>;
    /// Every pair, ascending by key.
    fn contents(&self) -> Vec<(u64, u64)>;
}

impl Target for Nbbst {
    const LAYER: &'static str = "bst";
    fn build(camera: &Arc<Camera>, _: u64) -> Self {
        Nbbst::new_versioned(camera)
    }
    fn tree(&self) -> Option<&Nbbst> {
        Some(self)
    }
    fn insert(&self, k: u64) -> bool {
        Nbbst::insert(self, k, k)
    }
    fn remove(&self, k: u64) -> bool {
        Nbbst::remove(self, k)
    }
    fn contains(&self, k: u64) -> bool {
        Nbbst::contains(self, k)
    }
    fn multi_get(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.multi_search(keys)
    }
    fn contents(&self) -> Vec<(u64, u64)> {
        self.scan()
    }
}

impl Target for VcasHashMap {
    const LAYER: &'static str = "hash";
    fn build(camera: &Arc<Camera>, keys: u64) -> Self {
        VcasHashMap::new_versioned(camera, VcasHashMap::buckets_for(keys, 0.75))
    }
    fn tree(&self) -> Option<&Nbbst> {
        None
    }
    fn insert(&self, k: u64) -> bool {
        VcasHashMap::insert(self, k, k)
    }
    fn remove(&self, k: u64) -> bool {
        VcasHashMap::remove(self, k)
    }
    fn contains(&self, k: u64) -> bool {
        VcasHashMap::contains(self, k)
    }
    fn multi_get(&self, keys: &[u64]) -> Vec<Option<u64>> {
        VcasHashMap::multi_get(self, keys)
    }
    fn contents(&self) -> Vec<(u64, u64)> {
        let mut pairs = self.snapshot_scan();
        pairs.sort_unstable();
        pairs
    }
}

/// Latency classes: one histogram each.
pub const UPDATE: usize = 0;
pub const LOOKUP: usize = 1;
pub const QUERY: usize = 2;

/// Probe cadence of the traced loops, in iterations.
const PROBE_EVERY: u64 = 1024;
const SLICE_PROBE_EVERY: u64 = 8192;

/// What one worker thread accumulates. Allocated before the heap baseline is taken and
/// reset in place, so the census sees only the structure's memory.
pub struct Worker {
    /// Position in the tape. It carries over from phase to phase, so that the window
    /// does not replay the warm-up.
    pos: u64,
    pub ops: u64,
    pub updates: u64,
    pub updates_ok: u64,
    pub queries: u64,
    pub failed: u64,
    /// Latency histograms per window slice, one per class.
    pub hist: Vec<[Histogram; 3]>,
    pub tracer: Option<Tracer>,
}

impl Worker {
    pub fn new(slices: usize) -> Worker {
        Worker {
            pos: 0,
            ops: 0,
            updates: 0,
            updates_ok: 0,
            queries: 0,
            failed: 0,
            hist: (0..slices)
                .map(|_| [Histogram::new(), Histogram::new(), Histogram::new()])
                .collect(),
            tracer: None,
        }
    }

    pub fn reset(&mut self) {
        self.ops = 0;
        self.updates = 0;
        self.updates_ok = 0;
        self.queries = 0;
        self.failed = 0;
        self.hist.iter_mut().flatten().for_each(Histogram::clear);
        self.tracer = None;
    }

    #[inline]
    fn record(&mut self, ctl: &Ctl, class: usize, ns: u64) {
        let slice = ctl.slice.load(Relaxed).min(self.hist.len() - 1);
        self.hist[slice][class].record(ns);
    }
}

/// How a loop runs: it stops after `limit` operations or when `stop` is raised, times
/// every `stride`-th operation into the histogram of the current `slice`, and publishes
/// its operation count to `progress` for the window's slice sampler.
pub struct Ctl<'a> {
    pub stop: &'a AtomicBool,
    pub progress: &'a AtomicU64,
    pub slice: &'a AtomicUsize,
    pub limit: u64,
    pub stride: u64,
}

impl Ctl<'_> {
    #[inline]
    fn running(&self, i: u64) -> bool {
        i < self.limit && !self.stop.load(Relaxed)
    }
}

/// Which probes a traced loop runs, and on which camera.
#[derive(Clone, Copy, Default)]
pub struct Probes<'a> {
    pub ebr_pin: bool,
    pub pin_snapshot: Option<&'a Arc<Camera>>,
    pub collect_slice: Option<&'a Camera>,
}

fn run_probes(p: &Probes, i: u64, tracer: &mut Tracer) {
    if !i.is_multiple_of(PROBE_EVERY) {
        return;
    }
    if p.ebr_pin {
        let t = Instant::now();
        for _ in 0..16 {
            drop(black_box(vcas_ebr::pin()));
        }
        tracer.probes[trace::PROBE_EBR_PIN].push(t.elapsed().as_nanos() as f64 / 16.0);
    }
    if let Some(camera) = p.pin_snapshot {
        let t = Instant::now();
        for _ in 0..4 {
            drop(black_box(camera.pin_snapshot()));
        }
        tracer.probes[trace::PROBE_PIN_SNAPSHOT].push(t.elapsed().as_nanos() as f64 / 4.0);
    }
    if let Some(camera) = p.collect_slice.filter(|_| i.is_multiple_of(SLICE_PROBE_EVERY)) {
        let guard = vcas_ebr::pin();
        let t = Instant::now();
        black_box(camera.collect_slice(64, &guard));
        tracer.probes[trace::PROBE_COLLECT_SLICE].push(t.elapsed().as_nanos() as f64);
    }
}

/// The closed point-operation loop: runs `tape` against `m`, checking every result
/// against `oracle`. `TRACED` wraps every call in spans instead of sampling latency.
pub fn point_ops<M: Target, const TRACED: bool>(
    m: &M,
    tape: &Tape,
    multi_keys: &[u64],
    oracle: &mut Oracle,
    w: &mut Worker,
    ctl: &Ctl,
    probes: Probes,
) {
    let mask = TAPE_LEN - 1;
    let mut tracer = w.tracer.take();
    let mut shift = tape.shift(w.pos / TAPE_LEN as u64);
    let mut i = 0u64;
    let mut last = Instant::now();
    while ctl.running(i) {
        let idx = (w.pos + i) as usize & mask;
        if idx == 0 {
            shift = tape.shift((w.pos + i) / TAPE_LEN as u64);
        }
        let word = tape.ops[idx];
        let (kind, mut arg) = (word >> KEY_BITS, word & KEY_MASK);
        if kind != MULTI_GET {
            arg += shift;
            if arg >= tape.range {
                arg -= tape.range;
            }
        }
        let multi: &[u64] =
            if kind == MULTI_GET { &multi_keys[arg as usize..][..MULTI_GET_KEYS] } else { &[] };
        let is_update = kind == INSERT || kind == REMOVE;
        let ok;
        if TRACED {
            let tr = tracer.as_mut().expect("traced loops carry a tracer");
            let before = is_update.then(census::thread_counts);
            let t0 = Instant::now();
            let r = call(m, kind, arg, multi);
            let t1 = Instant::now();
            if let Some(b) = before {
                let a = census::thread_counts();
                tr.update_allocs += a.allocs - b.allocs;
                tr.update_frees += a.frees - b.frees;
            }
            ok = check(oracle, kind, arg, multi, &r, w);
            let child = tr.span(i, SPAN_OF[kind as usize], t0, t1);
            let end = Instant::now();
            tr.iteration(i, last, end, child);
            run_probes(&probes, i + 1, tr);
            last = Instant::now();
        } else if i.is_multiple_of(ctl.stride) {
            let t0 = Instant::now();
            let r = call(m, kind, arg, multi);
            let dt = t0.elapsed().as_nanos() as u64;
            w.record(ctl, CLASS_OF[kind as usize], dt);
            ok = check(oracle, kind, arg, multi, &r, w);
        } else {
            let r = call(m, kind, arg, multi);
            ok = check(oracle, kind, arg, multi, &r, w);
        }
        if !ok {
            w.failed += 1;
        }
        i += 1;
        if i.is_multiple_of(64) {
            ctl.progress.store(i, Relaxed);
        }
    }
    ctl.progress.store(i, Relaxed);
    w.ops += i;
    w.pos += i;
    w.tracer = tracer;
}

const SPAN_OF: [usize; 4] = [trace::INSERT, trace::REMOVE, trace::CONTAINS, trace::MULTI_GET];
const CLASS_OF: [usize; 4] = [UPDATE, UPDATE, LOOKUP, QUERY];

enum Res {
    Bool(bool),
    Multi(Vec<Option<u64>>),
}

#[inline]
fn call<M: Target>(m: &M, kind: u64, key: u64, multi: &[u64]) -> Res {
    match kind {
        INSERT => Res::Bool(m.insert(key)),
        REMOVE => Res::Bool(m.remove(key)),
        CONTAINS => Res::Bool(m.contains(key)),
        _ => Res::Multi(m.multi_get(multi)),
    }
}

/// Compares one result with the oracle and applies the operation to it.
#[inline]
fn check(o: &mut Oracle, kind: u64, key: u64, multi: &[u64], r: &Res, w: &mut Worker) -> bool {
    match (kind, r) {
        (INSERT | REMOVE, Res::Bool(done)) => {
            w.updates += 1;
            w.updates_ok += *done as u64;
            let inserting = kind == INSERT;
            let expected = o.get(key) != inserting;
            o.set(key, inserting);
            *done == expected
        }
        (CONTAINS, Res::Bool(found)) => *found == o.get(key),
        (MULTI_GET, Res::Multi(got)) => {
            w.queries += 1;
            got.len() == multi.len()
                && got.iter().zip(multi).all(|(g, &k)| *g == o.get(k).then_some(k))
        }
        _ => false,
    }
}

/// Width of an atomic range query in `bst-rq-under-updates`.
pub const RANGE_WIDTH: u64 = 1024;

/// The closed range-query loop: atomic `range(lo, lo + RANGE_WIDTH - 1)` through a
/// fresh view each time. A result must be strictly ascending, inside the range, and
/// carry value = key.
pub fn range_queries<const TRACED: bool>(
    tree: &Nbbst,
    los: &[u64],
    w: &mut Worker,
    ctl: &Ctl,
    probes: Probes,
) {
    let mask = los.len() - 1;
    let mut tracer = w.tracer.take();
    let mut i = 0u64;
    let mut last = Instant::now();
    while ctl.running(i) {
        let lo = los[i as usize & mask];
        let hi = lo + RANGE_WIDTH - 1;
        let r;
        if TRACED {
            let tr = tracer.as_mut().expect("traced loops carry a tracer");
            let t0 = Instant::now();
            let view = tree.view();
            let t1 = Instant::now();
            r = view.range(lo, hi);
            let t2 = Instant::now();
            drop(view);
            let t3 = Instant::now();
            let children = tr.span(i, trace::VIEW_OPEN, t0, t1)
                + tr.span(i, trace::VIEW_RANGE, t1, t2)
                + tr.span(i, trace::VIEW_CLOSE, t2, t3);
            tr.range_keys += r.len() as u64;
            let ok = range_ok(&r, lo, hi);
            w.failed += !ok as u64;
            tr.iteration(i, last, Instant::now(), children);
            run_probes(&probes, i + 1, tr);
            last = Instant::now();
        } else {
            let t0 = Instant::now();
            r = tree.view().range(lo, hi);
            w.record(ctl, QUERY, t0.elapsed().as_nanos() as u64);
            w.failed += !range_ok(&r, lo, hi) as u64;
        }
        i += 1;
        w.queries += 1;
        ctl.progress.store(i, Relaxed);
    }
    w.ops += i;
    w.tracer = tracer;
}

fn range_ok(r: &[(u64, u64)], lo: u64, hi: u64) -> bool {
    r.iter().all(|&(k, v)| k == v && (lo..=hi).contains(&k))
        && r.windows(2).all(|p| p[0].0 < p[1].0)
}

/// Per-worker progress counters, one cache line each so the sampler's reads do not
/// disturb the workers.
#[repr(align(128))]
#[derive(Default)]
pub struct Progress(pub AtomicU64);

/// Length of one window slice.
pub const SLICE: Duration = Duration::from_millis(250);

/// Operation counts of every slice of a timed window.
pub struct Window {
    /// `(seconds, ops per worker)` for each slice.
    pub slices: Vec<(f64, Vec<u64>)>,
    pub seconds: f64,
}

impl Window {
    fn rate(&self, slice: usize, which: &[usize]) -> f64 {
        let (dt, ops) = &self.slices[slice];
        which.iter().map(|&i| ops[i]).sum::<u64>() as f64 / dt
    }

    /// The quiet slices: the tenth of the window's slices (at least one) in which all
    /// workers together completed the most operations. Noise on a shared host comes in
    /// bursts of seconds to tens of seconds that only slow the program down, so the
    /// quiet slices measure the program rather than its neighbours. Over the same eight
    /// 30 s runs of 0.25 s slices, the spread of `bst-update` throughput across runs
    /// was 0.147 of its median over all slices, 0.086 over the quietest quarter and
    /// 0.048 over the quietest tenth; latency medians and `hash-mixed` moved the same
    /// way.
    pub fn quiet(&self) -> Vec<usize> {
        let all: Vec<usize> = (0..self.slices[0].1.len()).collect();
        let mut order: Vec<usize> = (0..self.slices.len()).collect();
        order.sort_by(|&a, &b| self.rate(b, &all).total_cmp(&self.rate(a, &all)));
        order.truncate(self.slices.len().div_ceil(10));
        order
    }

    /// Median over the quiet slices of the rate of the workers in `which`, per second.
    pub fn rate_quiet(&self, which: &[usize]) -> f64 {
        let mut rates: Vec<f64> = self.quiet().iter().map(|&i| self.rate(i, which)).collect();
        trace::median(&mut rates).unwrap_or(0.0)
    }
}

/// Runs `jobs` on their own threads, released together by a barrier. The window opens
/// when the barrier releases and closes when every worker has stopped; the main thread
/// sleeps in between, waking each slice to read the progress counters and to move the
/// workers on to the next slice's histograms.
pub fn window<'a>(
    seconds: f64,
    stop: &AtomicBool,
    slice: &AtomicUsize,
    progress: &[Progress],
    jobs: Vec<Box<dyn FnOnce() + Send + 'a>>,
) -> Window {
    let barrier = Barrier::new(jobs.len() + 1);
    let read = || progress.iter().map(|p| p.0.load(Relaxed)).collect::<Vec<u64>>();
    let (start, slices) = std::thread::scope(|s| {
        for job in jobs {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                job();
            });
        }
        barrier.wait();
        let start = Instant::now();
        let mut slices = Vec::new();
        let (mut t_prev, mut ops_prev) = (start, read());
        while t_prev.duration_since(start).as_secs_f64() + 0.5 * SLICE.as_secs_f64() < seconds {
            std::thread::sleep(SLICE);
            let (t, ops) = (Instant::now(), read());
            slice.store(slices.len() + 1, Relaxed);
            let delta = ops.iter().zip(&ops_prev).map(|(a, b)| a - b).collect();
            slices.push((t.duration_since(t_prev).as_secs_f64(), delta));
            (t_prev, ops_prev) = (t, ops);
        }
        stop.store(true, Relaxed);
        (start, slices)
    });
    Window { slices, seconds: start.elapsed().as_secs_f64() }
}

/// Slices a window of `seconds` records, plus one for the operations that finish
/// after the last slice closes.
pub fn slices_for(seconds: f64) -> usize {
    (seconds / SLICE.as_secs_f64()).ceil() as usize + 2
}

/// Runs `jobs` to completion on their own threads (set-up phases with fixed counts).
pub fn run_jobs<'a>(jobs: Vec<Box<dyn FnOnce() + Send + 'a>>) {
    std::thread::scope(|s| {
        for job in jobs {
            s.spawn(job);
        }
    });
}
