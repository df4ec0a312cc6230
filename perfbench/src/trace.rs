//! Traced mode: spans around the benchmark's calls into each layer, kept in memory and
//! written out when the run ends, plus sparse probes of single layer entry points.
//!
//! One loop iteration is a root span; the layer call it makes is its child, sharing the
//! iteration's id. Aggregates cover every span of the traced window; the raw spans kept
//! for the trace file stop at [`RAW_CAP`] per thread.

use std::io::Write;
use std::time::Instant;

/// Span names. `ITER` is the root span of one loop iteration; the others are its
/// children, one per call into a layer.
pub const ITER: usize = 0;
pub const INSERT: usize = 1;
pub const REMOVE: usize = 2;
pub const CONTAINS: usize = 3;
pub const MULTI_GET: usize = 4;
pub const VIEW_OPEN: usize = 5;
pub const VIEW_RANGE: usize = 6;
pub const VIEW_CLOSE: usize = 7;
pub const SPAN_NAMES: [&str; 8] =
    ["iter", "insert", "remove", "contains", "multi_get", "view.open", "view.range", "view.close"];

/// Probe names: entry points timed in a tight batch every so many iterations, outside
/// any iteration span.
pub const PROBE_EBR_PIN: usize = 0;
pub const PROBE_PIN_SNAPSHOT: usize = 1;
pub const PROBE_COLLECT_SLICE: usize = 2;
pub const PROBE_NAMES: [&str; 3] = ["ebr.pin", "camera.pin_snapshot", "reclaim.collect_slice"];

/// Raw spans kept per thread for the trace file.
const RAW_CAP: usize = 1 << 16;

#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
}

impl Agg {
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }

    pub fn merge(&mut self, o: Agg) {
        self.count += o.count;
        self.total_ns += o.total_ns;
    }
}

#[derive(Clone, Copy)]
struct Span {
    id: u64,
    name: u8,
    start_ns: u64,
    dur_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: [Agg; SPAN_NAMES.len()],
    /// Iteration time not covered by a child span.
    pub self_ns: u64,
    pub probes: [Vec<f64>; PROBE_NAMES.len()],
    /// Allocations and frees made inside insert/remove calls.
    pub update_allocs: u64,
    pub update_frees: u64,
    /// Keys returned by `view.range` spans.
    pub range_keys: u64,
    raw: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: [Agg::default(); SPAN_NAMES.len()],
            self_ns: 0,
            probes: Default::default(),
            update_allocs: 0,
            update_frees: 0,
            range_keys: 0,
            raw: Vec::with_capacity(RAW_CAP),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    #[inline]
    pub fn span(&mut self, id: u64, name: usize, start: Instant, end: Instant) -> u64 {
        let dur = end.duration_since(start).as_nanos() as u64;
        self.spans[name].count += 1;
        self.spans[name].total_ns += dur;
        if self.raw.len() < RAW_CAP {
            let start_ns = self.ns(start);
            self.raw.push(Span { id, name: name as u8, start_ns, dur_ns: dur });
        }
        dur
    }

    /// Closes iteration `id`, whose child spans took `children_ns`.
    #[inline]
    pub fn iteration(&mut self, id: u64, start: Instant, end: Instant, children_ns: u64) {
        let dur = self.span(id, ITER, start, end);
        self.self_ns += dur.saturating_sub(children_ns);
    }

    /// Adds `o`'s aggregates and probe samples (not its raw spans) to this tracer.
    pub fn merge(&mut self, o: &Tracer) {
        for (a, b) in self.spans.iter_mut().zip(o.spans) {
            a.merge(b);
        }
        self.self_ns += o.self_ns;
        for (a, b) in self.probes.iter_mut().zip(&o.probes) {
            a.extend(b);
        }
        self.update_allocs += o.update_allocs;
        self.update_frees += o.update_frees;
        self.range_keys += o.range_keys;
    }

    /// Writes the raw spans as TSV (`thread id name parent start_ns dur_ns`), the parent
    /// of a child span being its iteration's root span.
    pub fn write(tracers: &[(&str, &Tracer)], path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\tid\tname\tparent\tstart_ns\tdur_ns")?;
        for (thread, t) in tracers {
            for s in &t.raw {
                let parent = if s.name as usize == ITER { "-" } else { "iter" };
                let name = SPAN_NAMES[s.name as usize];
                writeln!(
                    out,
                    "{thread}\t{}\t{name}\t{parent}\t{}\t{}",
                    s.id, s.start_ns, s.dur_ns
                )?;
            }
            for (p, samples) in t.probes.iter().enumerate() {
                for ns in samples {
                    writeln!(out, "{thread}\t-\tprobe.{}\t-\t-\t{ns:.1}", PROBE_NAMES[p])?;
                }
            }
        }
        out.flush()
    }
}

pub fn median(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}
