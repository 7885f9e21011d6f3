//! Sync-before-publish pass.
//!
//! Encodes the DESIGN.md §9/§11 durability protocol as a lint over the
//! durability-critical crates:
//!
//! - **rename-before-sync**: an atomic publish (`…rename(tmp, final)`)
//!   must be preceded — earlier in the same function body, or inside a
//!   directly-called helper one call-graph hop away — by an fsync of
//!   the written bytes (`sync`/`sync_all`/`sync_data`). Functions named
//!   `rename` are exempt: they *are* the primitive being wrapped.
//! - **ack-before-sync**: in `wal.rs`, every `pub fn append*` (the WAL
//!   ack surface) must transitively reach a sync call through the
//!   file's own helpers — acknowledging an append that never syncs
//!   would break crash-durability of acknowledged writes. The rule
//!   only sees that one file, so a crate with no `wal.rs`, or a
//!   `wal.rs` with no `pub fn append*`, is itself a finding: a split
//!   that moved the ack path elsewhere would otherwise switch the rule
//!   off without a word.
//!
//! Escape: `// lint:allow(durability)` on the flagged line (rule 1) or
//! the `fn` line (rule 2).

use std::collections::HashSet;

use crate::callgraph::{calls_in, DefIndex};
use crate::report::{Finding, Lint};
use crate::SourceUnit;

/// Calls that count as flushing written bytes to stable storage.
const SYNC_FAMILY: &[&str] = &["sync", "sync_all", "sync_data"];

/// Runs the sync-before-publish pass over one crate's library sources.
pub fn check_crate(files: &[&SourceUnit], findings: &mut Vec<Finding>) {
    let crate_index = DefIndex::build(
        files
            .iter()
            .enumerate()
            .map(|(i, u)| (i, u.funcs.as_slice())),
    );

    let mut wal_files = 0usize;
    for (fi, unit) in files.iter().enumerate() {
        // Rule 1: rename-without-preceding-sync.
        for f in &unit.funcs {
            if f.name == "rename" {
                continue;
            }
            let calls = calls_in(&unit.lexed, f.body_open, f.body_close);
            for (ci, c) in calls.iter().enumerate() {
                if c.callee != "rename" || unit.excluded.contains_token(c.tok) {
                    continue;
                }
                let synced_before = calls[..ci].iter().any(|prev| {
                    SYNC_FAMILY.contains(&prev.callee.as_str())
                        || crate_index
                            .unique(&prev.callee)
                            .is_some_and(|(gi, gx)| directly_syncs(files[gi], gx))
                });
                if synced_before || unit.lexed.allows(c.line, Lint::RenameNoSync.allow_name()) {
                    continue;
                }
                findings.push(Finding {
                    lint: Lint::RenameNoSync,
                    file: unit.rel.clone(),
                    line: c.line,
                    message: format!(
                        "`rename(…)` in `{}` publishes without a preceding sync of \
                         the written bytes — fsync the temp file first (write-temp \
                         → fsync → rename), see DESIGN.md §9",
                        f.name
                    ),
                });
            }
        }

        // Rule 2: WAL ack surface must reach a sync.
        if unit.rel.file_name().is_none_or(|n| n != "wal.rs") {
            continue;
        }
        wal_files += 1;
        let file_index = DefIndex::build([(fi, unit.funcs.as_slice())]);
        let mut ack_surface = 0usize;
        for (xi, f) in unit.funcs.iter().enumerate() {
            if !f.is_pub || !f.name.starts_with("append") {
                continue;
            }
            ack_surface += 1;
            let mut seen = HashSet::new();
            if reaches_sync(unit, &file_index, xi, &mut seen)
                || unit.lexed.allows(f.line, Lint::AckNoSync.allow_name())
            {
                continue;
            }
            findings.push(Finding {
                lint: Lint::AckNoSync,
                file: unit.rel.clone(),
                line: f.line,
                message: format!(
                    "WAL ack path `pub fn {}` never reaches a sync call — an \
                     acknowledged append must be durable (sync-before-ack, \
                     DESIGN.md §11)",
                    f.name
                ),
            });
        }
        if ack_surface == 0 {
            findings.push(Finding {
                lint: Lint::AckNoSync,
                file: unit.rel.clone(),
                line: 1,
                message: "`wal.rs` defines no `pub fn append*`: the ack-before-sync rule \
                          has nothing to check — keep the WAL ack surface in this file"
                    .to_string(),
            });
        }
    }

    // The crate-level half of rule 2: the ack path must be where the
    // rule looks for it.
    if wal_files == 0 {
        let anchor = files
            .iter()
            .find(|u| u.rel.file_name().is_some_and(|n| n == "lib.rs"))
            .or(files.first());
        if let Some(unit) = anchor {
            findings.push(Finding {
                lint: Lint::AckNoSync,
                file: unit.rel.clone(),
                line: 1,
                message: format!(
                    "crate `{}` has no `wal.rs`: the ack-before-sync rule has nothing \
                     to check — keep the WAL ack path (`pub fn append*`) in `wal.rs`",
                    unit.crate_name
                ),
            });
        }
    }
}

/// Whether the function's own body calls the sync family directly.
fn directly_syncs(unit: &SourceUnit, func: usize) -> bool {
    let f = &unit.funcs[func];
    calls_in(&unit.lexed, f.body_open, f.body_close)
        .iter()
        .any(|c| SYNC_FAMILY.contains(&c.callee.as_str()))
}

/// Whether function `func` reaches a sync call through helpers that
/// resolve uniquely within the same file (cycle-safe).
fn reaches_sync(
    unit: &SourceUnit,
    file_index: &DefIndex,
    func: usize,
    seen: &mut HashSet<usize>,
) -> bool {
    if !seen.insert(func) {
        return false;
    }
    let f = &unit.funcs[func];
    for c in calls_in(&unit.lexed, f.body_open, f.body_close) {
        if SYNC_FAMILY.contains(&c.callee.as_str()) {
            return true;
        }
        if let Some((_, gx)) = file_index.unique(&c.callee) {
            if reaches_sync(unit, file_index, gx, seen) {
                return true;
            }
        }
    }
    false
}
