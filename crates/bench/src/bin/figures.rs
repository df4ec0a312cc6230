//! Regenerates the data series behind the paper's figures and tables.
//!
//! Usage: `cargo run -p vcas-bench --release --bin figures -- <experiment> [more...]`,
//! where `<experiment>` is an id from `vcas_bench::EXPERIMENTS` or `all`. Every id is
//! checked before the first experiment starts.

use vcas_bench::{experiment_ids, is_experiment, run_experiment, ExperimentConfig};

fn usage() -> ! {
    eprintln!("usage: figures <{}> [more experiments...]", experiment_ids());
    std::process::exit(2);
}

fn main() {
    let experiments: Vec<String> = std::env::args().skip(1).collect();
    if experiments.is_empty() {
        usage();
    }
    for id in &experiments {
        if !is_experiment(id) {
            eprintln!("unknown experiment '{id}'");
            usage();
        }
    }

    let cfg = ExperimentConfig::default();
    eprintln!(
        "# config: duration={}ms small={} large={} threads={:?}",
        cfg.duration_ms, cfg.small_size, cfg.large_size, cfg.threads
    );
    for id in &experiments {
        run_experiment(id, &cfg);
    }
}
