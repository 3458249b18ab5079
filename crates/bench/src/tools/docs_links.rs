//! Docs link checker: fails CI when a relative Markdown link is broken.
//!
//! `cargo doc -D warnings` already guards rustdoc's intra-doc links; this
//! subcommand covers the repository-level Markdown (`README.md`,
//! `docs/ARCHITECTURE.md`, `ROADMAP.md`, and the rest of the checked-in
//! `.md` files) so the architecture book cannot silently rot as files move.
//!
//! Checked per file:
//!
//! * inline links/images `[label](target)` whose target is **relative**
//!   (anything that is not `http(s)://`, `mailto:` or a pure `#anchor`)
//!   must point at an existing file or directory, resolved against the
//!   linking file's directory; `#fragment` suffixes are stripped first;
//! * reference definitions `[label]: target` get the same treatment.
//!
//! Exit code: 0 when every link resolves, 1 otherwise (each broken link is
//! reported as `file: target`).
//!
//! ```text
//! predict_bench docs_links [repo_root]
//! ```
//!
//! The root defaults to the workspace root two levels above this crate's
//! manifest.

use std::path::{Path, PathBuf};

/// Markdown files checked, relative to the repository root. Kept explicit so
/// the gate's coverage is reviewable; extend when new top-level docs land.
const DOC_FILES: [&str; 9] = [
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
    "ISSUE.md",
    "docs/ARCHITECTURE.md",
    "vendor/README.md",
];

/// Extracts candidate link targets from one Markdown line: inline
/// `](target)` occurrences plus leading `[label]: target` reference
/// definitions. A tiny scanner, not a Markdown parser — good enough for the
/// repository's hand-written docs, and it never panics on weird input.
fn extract_targets(line: &str) -> Vec<String> {
    let mut targets = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(close) = line[i + 2..].find(')') {
                // A CommonMark link may carry a quoted title after the
                // target; only the first whitespace-delimited token is the
                // path.
                let inner = &line[i + 2..i + 2 + close];
                targets.push(inner.split_whitespace().next().unwrap_or("").to_string());
            }
        }
        i += 1;
    }
    // Reference definition: `[label]: target` at line start.
    let trimmed = line.trim_start();
    if trimmed.starts_with('[') {
        if let Some(end) = trimmed.find("]:") {
            let target = trimmed[end + 2..].trim();
            if !target.is_empty() {
                targets.push(target.split_whitespace().next().unwrap_or("").to_string());
            }
        }
    }
    targets
}

/// True when `target` is a relative path this checker should resolve.
fn is_relative_target(target: &str) -> bool {
    !(target.is_empty()
        || target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#'))
}

/// Checks every listed document under the root named in `args`.
pub fn run(args: &[String]) {
    let root: PathBuf = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .canonicalize()
                .expect("workspace root resolves")
        });

    let mut checked_files = 0usize;
    let mut checked_links = 0usize;
    let mut broken: Vec<String> = Vec::new();

    for rel in DOC_FILES {
        let path = root.join(rel);
        let Ok(text) = std::fs::read_to_string(&path) else {
            // A listed doc that does not exist is itself a broken link.
            broken.push(format!("{rel}: file missing"));
            continue;
        };
        checked_files += 1;
        let dir = path.parent().expect("doc file has a parent directory");
        let mut in_code_fence = false;
        for line in text.lines() {
            if line.trim_start().starts_with("```") {
                in_code_fence = !in_code_fence;
                continue;
            }
            if in_code_fence {
                continue;
            }
            for target in extract_targets(line) {
                if !is_relative_target(&target) {
                    continue;
                }
                let file_part = target.split('#').next().unwrap_or("");
                if file_part.is_empty() {
                    continue;
                }
                checked_links += 1;
                if !dir.join(file_part).exists() {
                    broken.push(format!("{rel}: {target}"));
                }
            }
        }
    }

    eprintln!("[docs-links] {checked_links} relative link(s) across {checked_files} file(s)");
    if broken.is_empty() {
        eprintln!("[docs-links] OK");
    } else {
        eprintln!("[docs-links] broken link(s):");
        for b in &broken {
            eprintln!("  {b}");
        }
        std::process::exit(1);
    }
}
