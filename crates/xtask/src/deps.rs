//! Dependency-allowlist check.
//!
//! Every `Cargo.toml` in the workspace is parsed (a minimal
//! section-aware scan — no TOML crate, by design) and every dependency
//! key in a `[dependencies]`-like section must be either workspace-
//! internal (a `bmb-*` crate, the umbrella crate, or a `path =` entry)
//! or on the fixed external allowlist. Anything else — a typo-squat, a
//! convenience crate snuck in, a transitive-by-hand addition — fails.

use std::path::Path;

use crate::report::{Finding, Lint};

/// External crates this workspace may depend on, and nothing else.
pub const ALLOWED_EXTERNAL: &[&str] = &["rand", "proptest", "criterion", "serde", "parking_lot"];

/// Internal name prefixes that are always allowed.
const INTERNAL_PREFIXES: &[&str] = &["bmb-", "bmb_"];

/// The umbrella crate name.
const UMBRELLA: &str = "beyond-market-baskets";

/// Whether a `[section]` header names a dependency table.
fn is_dependency_section(header: &str) -> bool {
    let h = header.trim();
    h.ends_with("dependencies]")
        && (h.starts_with("[dependencies")
            || h.starts_with("[dev-dependencies")
            || h.starts_with("[build-dependencies")
            || h.starts_with("[workspace.dependencies")
            || h.starts_with("[target."))
}

/// Runs the check over one manifest's text.
pub fn check(file: &Path, manifest: &str, findings: &mut Vec<Finding>) {
    let mut in_deps = false;
    // Set when inside `[dependencies.foo]`-style subtables.
    let mut subtable_dep: Option<String> = None;
    let mut subtable_line = 0usize;
    let mut subtable_has_path = false;

    let flush_subtable =
        |findings: &mut Vec<Finding>, name: &Option<String>, line: usize, has_path: bool| {
            if let Some(name) = name {
                if !allowed(name, has_path) {
                    findings.push(disallowed(file, line, name));
                }
            }
        };

    for (idx, raw) in manifest.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.starts_with('[') {
            flush_subtable(findings, &subtable_dep, subtable_line, subtable_has_path);
            subtable_dep = None;
            subtable_has_path = false;
            // `[dependencies.foo]` names the dep in the header itself.
            if let Some(rest) = strip_dependency_subtable(line) {
                in_deps = false;
                subtable_dep = Some(rest.to_string());
                subtable_line = line_no;
            } else {
                in_deps = is_dependency_section(line);
            }
            continue;
        }
        if subtable_dep.is_some() && line.starts_with("path") {
            subtable_has_path = true;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim();
        // `foo.workspace = true` → the dep name is the first segment.
        let name = key.split('.').next().unwrap_or(key).trim_matches('"');
        if name.is_empty() {
            continue;
        }
        let value = &line[eq + 1..];
        let has_path = value.contains("path");
        if !allowed(name, has_path) {
            findings.push(disallowed(file, line_no, name));
        }
    }
    flush_subtable(findings, &subtable_dep, subtable_line, subtable_has_path);
}

/// `[dependencies.foo]` / `[dev-dependencies.foo]` → `Some("foo")`.
fn strip_dependency_subtable(header: &str) -> Option<&str> {
    for prefix in [
        "[dependencies.",
        "[dev-dependencies.",
        "[build-dependencies.",
    ] {
        if let Some(rest) = header.strip_prefix(prefix) {
            return rest.strip_suffix(']');
        }
    }
    None
}

fn allowed(name: &str, has_path: bool) -> bool {
    has_path
        || name == UMBRELLA
        || INTERNAL_PREFIXES.iter().any(|p| name.starts_with(p))
        || ALLOWED_EXTERNAL.contains(&name)
}

fn disallowed(file: &Path, line: usize, name: &str) -> Finding {
    Finding {
        lint: Lint::Dependency,
        file: file.to_path_buf(),
        line,
        message: format!(
            "dependency `{name}` is outside the allowlist \
             ({}) — the workspace builds hermetically and every external \
             crate must be vetted here first",
            ALLOWED_EXTERNAL.join(", ")
        ),
    }
}
