//! # vcas-bench — the paper's figure and table experiments
//!
//! `cargo run -p vcas-bench --release --bin figures -- <experiment>` regenerates the data
//! series behind the figures and tables of the paper's evaluation (§7), plus the `hashmap`
//! scenario added by this reproduction. `<experiment>` is an id from [`EXPERIMENTS`]
//! (`fig2a`–`fig2k`, `fig2m`, `fig3`, `hashmap`, `table1`, `ablation`) or `all`. Output is
//! TSV on stdout. These are the multi-thread and plain-vs-versioned runs (`ablation` times
//! single-thread lookups on the plain tree against the versioned one, the per-access cost
//! of indirection the paper's §5 is about); the repository
//! benchmark with an oracle and regression bounds is `perfbench/` (see
//! `docs/benchmarking.md`, which maps every measurement to where it lives).
//!
//! Environment variables understood by the `figures` binary (all optional):
//!
//! * `VCAS_BENCH_MS` — timed window per data point in milliseconds (default 200).
//! * `VCAS_BENCH_SMALL` — "100K-key" structure size (default 20 000).
//! * `VCAS_BENCH_LARGE` — "100M-key" structure size (default 200 000).
//! * `VCAS_BENCH_THREADS` — comma-separated thread counts for the scalability figures
//!   (default `1,2,4,8`).

#![warn(missing_docs)]

pub mod experiments;

pub use experiments::{
    experiment_ids, is_experiment, run_experiment, ExperimentConfig, EXPERIMENTS,
};
