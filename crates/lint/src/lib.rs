//! **qlint** — a dependency-free static determinism lint for this
//! workspace.
//!
//! Everything the reproduction ships — fixture byte-identity,
//! batch lane independence, worker-count invariance, record/replay,
//! kill/resume (ARCHITECTURE.md invariants 1–5) — rests on
//! source-level rules: no wall-clock or OS entropy in simulation
//! paths, fixed accumulation order, no unordered iteration where
//! bytes reach an artifact. Dynamic tests catch violations only after
//! a bug has shipped; this crate rejects the hazard at the source
//! line, before any simulation runs.
//!
//! The pass is a hand-rolled token scanner ([`lexer`]) feeding a rule
//! engine ([`engine`]) over every non-vendored `.rs` file in the
//! workspace ([`walk`]), in sorted path order, rendered as text or a
//! versioned `lint.json` ([`report`]) — the same dep-free artifact
//! discipline as `bench::json` and the NXQT/NXCP codecs. Rule catalog
//! and IDs live in [`rules`]; the prose catalog is `docs/LINT.md`.
//!
//! Exemptions are inline and self-documenting:
//!
//! ```text
//! // qlint::allow(ND01, reason = "wall-clock progress log, not simulation state")
//! ```
//!
//! The reason string is mandatory; a marker without one is itself a
//! finding (QL01), and a marker that suppresses nothing goes stale
//! loudly (QL02).
//!
//! # Example
//!
//! ```
//! use qlint::{lint_source, FileContext, FileKind, RuleId};
//!
//! let src = "fn f() { let t = std::time::Instant::now(); }\n";
//! let ctx = FileContext { kind: FileKind::Lib, artifact: false };
//! let (findings, _suppressed) = lint_source("demo.rs", &ctx, src);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, RuleId::Nd01);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod walk;

use std::io;
use std::path::Path;

pub use engine::{FileContext, FileKind, Finding};
pub use report::{Report, SCHEMA_VERSION};
pub use rules::{RuleId, ALL_RULES};

/// Lints one source file under an explicit context. Returns the
/// findings (file field filled with `file`) and the suppressed count.
#[must_use]
pub fn lint_source(file: &str, ctx: &FileContext, src: &str) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let suppressed = engine::lint_file(file, ctx, src, &mut findings);
    for f in &mut findings {
        if f.file.is_empty() {
            file.clone_into(&mut f.file);
        }
    }
    sort_findings(&mut findings);
    (findings, suppressed)
}

/// Lints every non-vendored `.rs` file under `root` (a workspace
/// checkout). Deterministic: files are walked in sorted path order and
/// findings are fully ordered, so repeated runs produce identical
/// reports.
///
/// # Errors
///
/// Returns any I/O error from walking the tree or reading a file.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let files = walk::collect_rs_files(root)?;
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for rel in &files {
        let ctx = walk::classify(rel);
        let src = std::fs::read_to_string(root.join(rel))?;
        let (mut file_findings, file_suppressed) = lint_source(rel, &ctx, &src);
        findings.append(&mut file_findings);
        suppressed += file_suppressed;
    }
    sort_findings(&mut findings);
    Ok(Report {
        findings,
        files_scanned: files.len(),
        suppressed,
    })
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule.code()).cmp(&(&b.file, b.line, b.col, b.rule.code()))
    });
}
