//! The lint rules (see the crate docs for the list) and their driver, [`run`].

use crate::strip::{classify, count_word, Line};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Files in which every `Ordering::Relaxed` must carry an `// ORDERING:` justification.
const PROTOCOL_FILES: &[&str] = &[
    "crates/core/src/versioned.rs",
    "crates/core/src/versioned_ptr.rs",
    "crates/core/src/vnode.rs",
    "crates/core/src/cell.rs",
    "crates/core/src/camera.rs",
    "crates/core/src/reclaim.rs",
    "crates/structures/src/bst.rs",
    "crates/structures/src/list.rs",
    "crates/structures/src/skiplist.rs",
    "crates/structures/src/hashmap.rs",
    "crates/structures/src/queue.rs",
    "crates/structures/src/cache.rs",
];
const PROTOCOL_PREFIX: &str = "crates/ebr/src/";

/// Directory prefixes whose files must route all synchronization through `vcas_sync`.
const FACADE_ONLY_PREFIXES: &[&str] =
    &["crates/core/src/", "crates/ebr/src/", "crates/structures/src/"];
/// Files exempt from the facade rule: the lock-based baselines deliberately use
/// `parking_lot` primitives as the paper's comparison points, and are never model-checked.
const FACADE_EXEMPT_FILES: &[&str] = &["crates/structures/src/baselines.rs"];
const FORBIDDEN_IMPORTS: &[&str] = &["std::sync::atomic", "core::sync::atomic", "parking_lot"];

/// Lint rule identifiers, used to group findings in reports.
pub const RULES: &[&str] = &["safety", "ordering-ledger", "facade", "scan"];

/// A single lint finding, tagged with the rule that produced it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// One of [`RULES`].
    pub rule: &'static str,
    /// Human-readable description, usually prefixed `path:line:`.
    pub message: String,
}

/// The full result of a lint pass, independent of output format.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Workspace `.rs` files scanned.
    pub files_scanned: usize,
    /// Total `unsafe` occurrences found (documented or not).
    pub unsafe_sites: usize,
    /// `Ordering::Relaxed` occurrences in protocol files.
    pub relaxed_sites: usize,
    /// Distinct `// ORDERING:` labels encountered, sorted.
    pub labels_used: Vec<String>,
    /// Every finding from every rule; empty means the pass is clean.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Whether the pass found nothing to report.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings per rule (rules with zero findings included, for stable reports).
    pub fn rule_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = RULES.iter().map(|r| (*r, 0)).collect();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        counts
    }

    /// Machine-readable report (hand-rolled JSON; the workspace takes no serializer
    /// dependency). Uploaded as a CI artifact by the analysis jobs.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"ok\": {},", self.ok());
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"unsafe_sites\": {},", self.unsafe_sites);
        let _ = writeln!(s, "  \"relaxed_sites\": {},", self.relaxed_sites);
        let labels: Vec<String> =
            self.labels_used.iter().map(|l| format!("\"{}\"", json_escape(l))).collect();
        let _ = writeln!(s, "  \"ordering_labels\": [{}],", labels.join(", "));
        let _ = writeln!(s, "  \"findings_by_rule\": {{");
        let counts = self.rule_counts();
        let mut first = true;
        for (rule, n) in &counts {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(s, "    \"{rule}\": {n}");
        }
        s.push_str("\n  },\n");
        let _ = writeln!(s, "  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"rule\": \"{}\", \"message\": \"{}\"}}{comma}",
                f.rule,
                json_escape(&f.message)
            );
        }
        s.push_str("  ]\n}");
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs all rules against the workspace at `root`. `Ok` carries a human-readable
/// summary, `Err` the full list of findings.
pub fn run(root: &Path) -> Result<String, String> {
    let report = analyze(root)?;
    if report.ok() {
        let mut s = String::new();
        let _ = writeln!(s, "vcas-analysis lint: OK");
        let _ = writeln!(s, "  files scanned:        {}", report.files_scanned);
        let _ = writeln!(s, "  unsafe sites:         {} (all documented)", report.unsafe_sites);
        let _ = writeln!(s, "  relaxed sites:        {} (all ledgered)", report.relaxed_sites);
        let _ = write!(s, "  ordering labels used: {}", report.labels_used.len());
        Ok(s)
    } else {
        let mut s = format!("vcas-analysis lint: {} finding(s)\n", report.findings.len());
        for f in &report.findings {
            let _ = writeln!(s, "  - [{}] {}", f.rule, f.message);
        }
        Err(s)
    }
}

/// Runs all rules against the workspace at `root` and returns the structured report.
/// `Err` only for environmental problems (a root with no sources).
pub fn analyze(root: &Path) -> Result<LintReport, String> {
    let files = collect_files(root);
    if files.is_empty() {
        return Err(format!("no .rs files found under {} — wrong --root?", root.display()));
    }
    let ledger = std::fs::read_to_string(root.join("docs/memory_orderings.md")).ok();

    let mut findings: Vec<Finding> = Vec::new();
    let mut unsafe_sites = 0usize;
    let mut relaxed_sites = 0usize;
    let mut labels_used: BTreeSet<String> = BTreeSet::new();

    for rel in &files {
        let source = match std::fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                findings.push(Finding { rule: "scan", message: format!("{rel}: unreadable: {e}") });
                continue;
            }
        };
        let lines = classify(&source);

        // Rule 1: every unsafe site must be documented.
        for (i, line) in lines.iter().enumerate() {
            let n = count_word(&line.code, "unsafe");
            if n == 0 {
                continue;
            }
            unsafe_sites += n;
            if !documented(&lines, i, &["SAFETY:", "# Safety"]) {
                findings.push(Finding {
                    rule: "safety",
                    message: format!(
                        "{rel}:{}: `unsafe` without a `// SAFETY:` argument (same line or \
                         comment block above)",
                        i + 1
                    ),
                });
            }
        }

        // Rule 2: Ordering::Relaxed in protocol files needs an ORDERING: label that the
        // ledger knows about.
        if is_protocol_file(rel) {
            for (i, line) in lines.iter().enumerate() {
                let n = line.code.matches("Ordering::Relaxed").count();
                if n == 0 {
                    continue;
                }
                relaxed_sites += n;
                match ordering_label(&lines, i) {
                    None => findings.push(Finding {
                        rule: "ordering-ledger",
                        message: format!(
                            "{rel}:{}: `Ordering::Relaxed` without an `// ORDERING: <label>` \
                             justification (same line or comment block above)",
                            i + 1
                        ),
                    }),
                    Some(label) => {
                        labels_used.insert(label.clone());
                        match &ledger {
                            None => findings.push(Finding {
                                rule: "ordering-ledger",
                                message: format!(
                                    "{rel}:{}: ORDERING label `{label}` but \
                                     docs/memory_orderings.md is missing",
                                    i + 1
                                ),
                            }),
                            Some(text) if !text.contains(&format!("`{label}`")) => {
                                findings.push(Finding {
                                    rule: "ordering-ledger",
                                    message: format!(
                                        "{rel}:{}: ORDERING label `{label}` is not listed \
                                         (backticked) in docs/memory_orderings.md",
                                        i + 1
                                    ),
                                })
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
        }

        // Rule 3: core/ebr/structures must go through the vcas_sync facade (the
        // lock-based baselines are exempt — see FACADE_EXEMPT_FILES).
        if FACADE_ONLY_PREFIXES.iter().any(|p| rel.starts_with(p))
            && !FACADE_EXEMPT_FILES.contains(&rel.as_str())
        {
            for (i, line) in lines.iter().enumerate() {
                for forbidden in FORBIDDEN_IMPORTS {
                    if line.code.contains(forbidden) {
                        findings.push(Finding {
                            rule: "facade",
                            message: format!(
                                "{rel}:{}: direct `{forbidden}` use — import it via the \
                                 `vcas_sync` facade (`crate::sync`) so the model checker can \
                                 intercept it",
                                i + 1
                            ),
                        });
                    }
                }
            }
        }
    }

    Ok(LintReport {
        files_scanned: files.len(),
        unsafe_sites,
        relaxed_sites,
        labels_used: labels_used.into_iter().collect(),
        findings,
    })
}

fn is_protocol_file(rel: &str) -> bool {
    PROTOCOL_FILES.contains(&rel) || rel.starts_with(PROTOCOL_PREFIX)
}

/// True when line `i` carries one of `markers` in its own comment or in the contiguous
/// comment/attribute block immediately above it.
fn documented(lines: &[Line], i: usize, markers: &[&str]) -> bool {
    let has = |l: &Line| markers.iter().any(|m| l.comment.contains(m));
    if has(&lines[i]) {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.is_code_free() && !l.comment.trim().is_empty() {
            if has(l) {
                return true;
            }
        } else if l.is_attribute_only() {
            continue;
        } else {
            break; // blank line or real code ends the block
        }
    }
    false
}

/// Extracts the `// ORDERING: <label>` label covering line `i` (same line or the comment
/// block above).
fn ordering_label(lines: &[Line], i: usize) -> Option<String> {
    if let Some(l) = extract_label(&lines[i].comment) {
        return Some(l);
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.is_code_free() && !l.comment.trim().is_empty() {
            if let Some(lab) = extract_label(&l.comment) {
                return Some(lab);
            }
        } else if l.is_attribute_only() {
            continue;
        } else {
            break;
        }
    }
    None
}

fn extract_label(comment: &str) -> Option<String> {
    let pos = comment.find("ORDERING:")?;
    let rest = comment[pos + "ORDERING:".len()..].trim_start();
    let token: String = rest.chars().take_while(|c| !c.is_whitespace()).collect();
    let token = token.trim_end_matches([':', ',', '.', ';']).to_string();
    if token.is_empty() {
        None
    } else {
        Some(token)
    }
}

/// All workspace `.rs` files in scope, as `/`-separated paths relative to `root`.
/// Vendored shims are deliberately out of scope.
fn collect_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for e in entries.flatten() {
            let src = e.path().join("src");
            walk(&src, root, &mut out);
            let tests = e.path().join("tests");
            walk(&tests, root, &mut out);
        }
    }
    for top in ["src", "tests", "examples"] {
        walk(&root.join(top), root, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk(&p, root, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            if let Ok(rel) = p.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Relative path of a [`PathBuf`] under the workspace root, for tests.
pub fn relative(root: &Path, p: &Path) -> Option<PathBuf> {
    p.strip_prefix(root).ok().map(Path::to_path_buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strip::classify;

    #[test]
    fn documented_accepts_same_line_and_block_above() {
        let lines = classify(
            "// SAFETY: fine\nunsafe { a() };\nlet x = 1;\nunsafe { b() }; // SAFETY: inline\nunsafe { c() };",
        );
        assert!(documented(&lines, 1, &["SAFETY:"]));
        assert!(documented(&lines, 3, &["SAFETY:"]));
        assert!(!documented(&lines, 4, &["SAFETY:"]));
    }

    #[test]
    fn documented_skips_attributes_and_accepts_safety_sections() {
        let lines = classify(
            "/// Does things.\n///\n/// # Safety\n/// Caller checks.\n#[inline]\npub unsafe fn f() {}",
        );
        assert!(documented(&lines, 5, &["SAFETY:", "# Safety"]));
    }

    #[test]
    fn blank_line_breaks_the_comment_block() {
        let lines = classify("// SAFETY: stale\n\nunsafe { a() };");
        assert!(!documented(&lines, 2, &["SAFETY:"]));
    }

    #[test]
    fn ordering_labels_are_extracted() {
        let lines = classify(
            "// ORDERING: diag-counter — monitoring only\nx.fetch_add(1, Ordering::Relaxed);",
        );
        assert_eq!(ordering_label(&lines, 1).as_deref(), Some("diag-counter"));
        let inline = classify("x.load(Ordering::Relaxed) // ORDERING: cursor: rotation hint");
        assert_eq!(ordering_label(&inline, 0).as_deref(), Some("cursor"));
        let none = classify("x.load(Ordering::Relaxed);");
        assert_eq!(ordering_label(&none, 0), None);
    }
}
