//! CLI entry point: `cargo run -p vcas-analysis -- lint [--root <path>] [--json]`.
//!
//! `--json` prints the structured [`vcas_analysis::lint::LintReport`] (per-rule finding
//! counts, `unsafe` and relaxed-site totals, full finding list) to stdout; the exit code
//! still reflects pass/fail, so CI can upload the report as an artifact either way.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = args.get(i).cloned();
            }
            "--json" => json = true,
            c if cmd.is_none() => cmd = Some(c.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    match cmd.as_deref() {
        Some("lint") => {
            let root = root.map(std::path::PathBuf::from).unwrap_or_else(vcas_analysis::repo_root);
            if json {
                return match vcas_analysis::lint::analyze(&root) {
                    Ok(report) => {
                        println!("{}", report.to_json());
                        if report.ok() {
                            ExitCode::SUCCESS
                        } else {
                            ExitCode::FAILURE
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                };
            }
            match vcas_analysis::lint::run(&root) {
                Ok(summary) => {
                    println!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(failures) => {
                    eprintln!("{failures}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("usage: vcas-analysis lint [--root <workspace root>] [--json]");
            ExitCode::FAILURE
        }
    }
}
