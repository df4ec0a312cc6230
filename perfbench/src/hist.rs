//! Fixed log-linear latency histogram (nanoseconds): values below 128 get a bucket each,
//! and every power of two above is split into 128 equal buckets, so a bucket is at most
//! 0.8% wide. Quantiles interpolate within their bucket.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values from 2^32 ns (4.3 s) up share the last bucket.
const MAX_BITS: u32 = 32;
const BUCKETS: usize = (MAX_BITS - SUB_BITS + 1) as usize * SUB;

pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

fn index(v: u64) -> usize {
    let v = v.min((1 << MAX_BITS) - 1);
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize & (SUB - 1))
}

/// Lowest value of bucket `i` and the bucket's width.
fn bucket(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i / SUB - 1) as i32;
    let low = (SUB + i % SUB) as f64 * 2f64.powi(shift);
    (low, 2f64.powi(shift))
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram { counts: vec![0; BUCKETS], total: 0 }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile in nanoseconds, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = q * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > target {
                let (low, width) = bucket(i);
                return Some(low + width * (target - below as f64) / c as f64);
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).expect("total > 0");
        let (low, width) = bucket(last);
        Some(low + width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [0u64, 1, 127, 128, 255, 256, 1000, 123_456, (1 << MAX_BITS) - 1] {
            let (low, width) = bucket(index(v));
            assert!(low <= v as f64 && (v as f64) < low + width, "{v}");
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_close() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 5000.0).abs() < 50.0, "{p50}");
        assert!((p99 - 9900.0).abs() < 80.0, "{p99}");
    }
}
