//! # vcas-analysis — repo-specific concurrency static analysis
//!
//! The vCAS protocol's correctness argument lives in two kinds of source annotation that
//! ordinary tooling cannot check offline: `// SAFETY:` comments on `unsafe` code and
//! `// ORDERING:` justifications tying every relaxed atomic to the ledger in
//! `docs/memory_orderings.md`. This crate is a self-contained (no external parser —
//! the build environment is offline) line/token-level scanner enforcing:
//!
//! 1. **SAFETY arguments** — every `unsafe` token in every crate is documented by a
//!    `SAFETY:` (or rustdoc `# Safety`) comment on the same line or in the comment block
//!    immediately above. There is no allowlist: an undocumented site fails the lint.
//! 2. **ORDERING ledger** — every `Ordering::Relaxed` in the protocol-critical modules
//!    (`vcas-core::{versioned, versioned_ptr, camera, reclaim}` and all of `vcas-ebr`)
//!    carries an `// ORDERING: <label>` justification whose label appears (backticked)
//!    in `docs/memory_orderings.md`. A module on that list that does not exist is itself
//!    a finding, so the list cannot name deleted files.
//! 3. **Facade enforcement** — `vcas-core` and `vcas-ebr` never name `std::sync::atomic`
//!    or `parking_lot` directly; all synchronization goes through `vcas_sync` so the
//!    `--cfg vcas_model` checker's interception is complete.
//!
//! Run as `cargo run -p vcas-analysis -- lint`; also executed by the integration test
//! `tests/lint_clean.rs`, so plain `cargo test` enforces the rules too.

#![warn(missing_docs)]

pub mod lint;
pub mod strip;

use std::path::PathBuf;

/// Returns the workspace root this crate was compiled in (two levels above the crate's
/// manifest directory).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis has a workspace root two levels up")
        .to_path_buf()
}
