//! Workload specifications: operation mixes, key distributions, and run parameters.

use rand::Rng;

/// Default RNG seed for every workload run.
///
/// All randomness in the driver (prefill, per-thread operation streams) derives from
/// [`WorkloadSpec::seed`], which defaults to this constant — so two runs of the same spec
/// draw identical operation sequences, and any driver test failure can be reproduced by
/// re-running with the seed printed in its assertion message.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// How operation keys are drawn from the key universe `[1, r]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeySkew {
    /// Uniformly random keys (the paper's workload).
    Uniform,
    /// Power-law skew toward small keys via inverse-transform sampling:
    /// `key = ceil(r * u^exponent)` for uniform `u` in `(0, 1)`, so
    /// `P(key <= x) = (x / r)^(1 / exponent)`. `exponent = 1.0` is uniform; larger
    /// exponents concentrate traffic on fewer keys (a cheap stand-in for Zipf that needs
    /// no per-range precomputation, so it can run inside the hot sampling loop).
    Skewed {
        /// Skew strength; must be at least 1.0 (1.0 = uniform).
        exponent: f64,
    },
}

impl KeySkew {
    /// Draws one key from `[1, key_range]` under this distribution.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, key_range: u64) -> u64 {
        match *self {
            KeySkew::Uniform => rng.gen_range(1..=key_range.max(1)),
            KeySkew::Skewed { exponent } => {
                // 53 random bits -> uniform f64 in (0, 1) (offset by half an ulp so the
                // power transform never sees exactly 0).
                let u = (rng.gen_range(0..(1u64 << 53)) as f64 + 0.5) / (1u64 << 53) as f64;
                let k = (key_range.max(1) as f64 * u.powf(exponent.max(1.0))).ceil() as u64;
                k.clamp(1, key_range.max(1))
            }
        }
    }

    /// Compact label, e.g. `uniform` or `skew2.0`.
    pub fn label(&self) -> String {
        match self {
            KeySkew::Uniform => "uniform".to_string(),
            KeySkew::Skewed { exponent } => format!("skew{exponent:.1}"),
        }
    }
}

/// Keys per bucket the hash-map runs size their tables for (see [`bucket_count`]).
const LOAD_FACTOR: f64 = 0.75;

/// Keys per atomic `multi_get` batch that a hash map's range slot issues (see
/// `driver::RangeSlot`).
pub const MULTI_GET_BATCH: usize = 16;

/// Bucket count for a hash table prefilled to `initial_size` keys at a load factor of
/// 0.75 keys per bucket: `initial_size / 0.75` rounded up to a power of two.
pub fn bucket_count(initial_size: u64) -> usize {
    vcas_structures::VcasHashMap::buckets_for(initial_size.max(1), LOAD_FACTOR)
}

/// Which flavor of time-travel queries the reader of the `timetravel` scenario issues
/// (see `driver::run_timetravel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeTravelMode {
    /// As-of queries: every reader round re-opens `view_at(anchor_ts)` for each named
    /// anchor and asserts the answers are byte-identical to the model captured when the
    /// anchor was created — frozen forever, no matter how far the writers have moved on.
    AsOf,
    /// Temporal diffs: every reader round diffs each adjacent anchor pair and asserts
    /// the diff *reconciles* — applying it to the older anchor's model reproduces the
    /// newer anchor's model exactly.
    Diff,
}

impl TimeTravelMode {
    /// Every mode, in reporting order.
    pub fn all() -> [TimeTravelMode; 2] {
        [TimeTravelMode::AsOf, TimeTravelMode::Diff]
    }
}

/// An operation mix, as percentages of insert / delete / find / range-query.
///
/// The percentages must sum to 100; whatever is left after `insert + delete + range` is the
/// find (lookup) percentage, mirroring how the paper states its mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Percent of operations that are inserts.
    pub insert: u32,
    /// Percent of operations that are deletes.
    pub delete: u32,
    /// Percent of operations that are range queries.
    pub range: u32,
}

impl Mix {
    /// The paper's lookup-heavy mix: 3% insert, 2% delete, 95% find.
    pub fn lookup_heavy() -> Mix {
        Mix { insert: 3, delete: 2, range: 0 }
    }

    /// The paper's update-heavy mix: 30% insert, 20% delete, 50% find.
    pub fn update_heavy() -> Mix {
        Mix { insert: 30, delete: 20, range: 0 }
    }

    /// The paper's update-heavy mix with 1% range queries: 30% insert, 20% delete, 49% find,
    /// 1% range.
    pub fn update_heavy_with_rq() -> Mix {
        Mix { insert: 30, delete: 20, range: 1 }
    }

    /// Percent of operations that are finds (whatever is not insert/delete/range).
    pub fn find(&self) -> u32 {
        100 - self.insert - self.delete - self.range
    }

    /// Compact label, e.g. `3i-2d-95f-0rq`.
    pub fn label(&self) -> String {
        format!("{}i-{}d-{}f-{}rq", self.insert, self.delete, self.find(), self.range)
    }

    /// Draws one operation with this mix's percentages.
    pub(crate) fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> Op {
        let dice = rng.gen_range(0..100u32);
        if dice < self.insert {
            Op::Insert
        } else if dice < self.insert + self.delete {
            Op::Delete
        } else if dice < self.insert + self.delete + self.range {
            Op::Range
        } else {
            Op::Find
        }
    }
}

/// One operation drawn from a [`Mix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Insert the drawn key.
    Insert,
    /// Remove the drawn key.
    Delete,
    /// The range slot: a multi-point query anchored at the drawn key.
    Range,
    /// Look the drawn key up.
    Find,
}

/// Parameters of one timed workload run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of worker threads.
    pub threads: usize,
    /// Target size of the structure; it is prefilled to this many keys.
    pub initial_size: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Inclusive size of each range query (number of keys spanned).
    pub range_size: u64,
    /// Length of the timed window in milliseconds.
    pub duration_ms: u64,
    /// Seed for the per-thread RNGs (runs are reproducible given the same seed); defaults
    /// to [`DEFAULT_SEED`]. Driver assertion failures print this value.
    pub seed: u64,
    /// Distribution operation keys are drawn from (prefill is always uniform, so the
    /// structure reliably reaches `initial_size` even under heavy skew).
    pub skew: KeySkew,
}

impl WorkloadSpec {
    /// A spec with the given thread count and size, using the paper's defaults elsewhere
    /// (uniform keys, seed [`DEFAULT_SEED`]).
    pub fn new(threads: usize, initial_size: u64, mix: Mix) -> WorkloadSpec {
        WorkloadSpec {
            threads,
            initial_size,
            mix,
            range_size: 1024,
            duration_ms: 300,
            seed: DEFAULT_SEED,
            skew: KeySkew::Uniform,
        }
    }

    /// Same spec with an explicit RNG seed.
    pub fn with_seed(mut self, seed: u64) -> WorkloadSpec {
        self.seed = seed;
        self
    }

    /// Same spec with a different key distribution.
    pub fn with_skew(mut self, skew: KeySkew) -> WorkloadSpec {
        self.skew = skew;
        self
    }

    /// The key universe `[1, r]`: chosen (as in §7 "Workload") so the structure stays at the
    /// initial size in expectation under the insert/delete mix.
    pub fn key_range(&self) -> u64 {
        let ins = self.mix.insert.max(1) as u64;
        let del = self.mix.delete as u64;
        (self.initial_size * (ins + del) / ins).max(self.initial_size).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_percentages_add_up() {
        assert_eq!(Mix::lookup_heavy().find(), 95);
        assert_eq!(Mix::update_heavy().find(), 50);
        assert_eq!(Mix::update_heavy_with_rq().find(), 49);
        assert_eq!(Mix::update_heavy().label(), "30i-20d-50f-0rq");
    }

    #[test]
    fn draws_follow_the_mix() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(DEFAULT_SEED);
        let mix = Mix { insert: 30, delete: 20, range: 10 };
        let mut counts = [0u32; 4];
        for _ in 0..10_000 {
            counts[mix.draw(&mut rng) as usize] += 1;
        }
        // Expected 3000 / 2000 / 1000 / 4000; each within 10% of its share.
        for (got, want) in counts.into_iter().zip([3000u32, 2000, 1000, 4000]) {
            assert!(got.abs_diff(want) < want / 10, "{counts:?}");
        }
        let updates = Mix { insert: 50, delete: 50, range: 0 };
        assert!((0..1000).all(|_| matches!(updates.draw(&mut rng), Op::Insert | Op::Delete)));
    }

    #[test]
    fn seed_is_explicit_and_overridable() {
        let spec = WorkloadSpec::new(1, 100, Mix::lookup_heavy());
        assert_eq!(spec.seed, DEFAULT_SEED);
        assert_eq!(spec.with_seed(42).seed, 42);
    }

    #[test]
    fn skew_sampler_stays_in_range_and_skews_low() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(DEFAULT_SEED);
        let range = 10_000u64;
        for skew in [KeySkew::Uniform, KeySkew::Skewed { exponent: 3.0 }] {
            for _ in 0..5_000 {
                let k = skew.sample(&mut rng, range);
                assert!((1..=range).contains(&k), "{k} out of [1, {range}] under {skew:?}");
            }
        }
        // Under exponent 3, the median of u^3 is 0.125, so well over half the draws land
        // in the bottom quarter of the universe; under uniform, about a quarter do.
        let mut low = 0;
        let draws = 4_000;
        let skewed = KeySkew::Skewed { exponent: 3.0 };
        for _ in 0..draws {
            if skewed.sample(&mut rng, range) <= range / 4 {
                low += 1;
            }
        }
        assert!(low > draws / 2, "skewed sampler not skewed: {low}/{draws} in bottom quarter");
        assert_eq!(skewed.label(), "skew3.0");
        assert_eq!(KeySkew::Uniform.label(), "uniform");
    }

    #[test]
    fn hashmap_scenario_sizes_the_table() {
        // 1000 keys at load factor 0.75 -> 1334 buckets -> rounded up to 2048.
        assert_eq!(bucket_count(1000), 2048);
        assert_eq!(bucket_count(0), 2, "an empty table still gets its buckets");
    }

    #[test]
    fn key_range_matches_paper_formula() {
        // Paper example: n = 100K, 30% inserts, 20% deletes -> r = n * 50/30 ~= 166K.
        let spec = WorkloadSpec::new(1, 100_000, Mix::update_heavy());
        assert_eq!(spec.key_range(), 100_000 * 50 / 30);
        // Lookup-only workloads keep r >= n.
        let spec = WorkloadSpec::new(1, 1000, Mix { insert: 0, delete: 0, range: 0 });
        assert!(spec.key_range() >= 1000);
    }
}
