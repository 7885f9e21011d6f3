//! CLI entry point: `cargo run -p bmb-xtask -- lint [ROOT] [--only PASS]`.
//!
//! Exits 0 when the tree is clean, 1 when findings exist, 2 on usage or
//! I/O errors. `ROOT` defaults to the workspace this binary was built
//! from (two levels above `crates/xtask`), so the command works from any
//! working directory.

use std::path::PathBuf;
use std::process::ExitCode;

use bmb_xtask::{render, render_json, run_lint, LintConfig};

const USAGE: &str = "\
bmb-xtask — workspace static analysis

USAGE:
    cargo run -p bmb-xtask -- lint [ROOT] [--only PASS]... [--json]

PASSES (default: all):
    panics      panic-freedom in library crates
    floats      float comparison / lossy-cast discipline
    deps        Cargo.toml dependency allowlist
    docs        doc coverage in library crates
    locks       Mutex/RwLock acquisition order, re-entrancy, I/O under guard
    atomics     Ordering::Relaxed intent notes on control-flow atomics
    durability  sync-before-publish / sync-before-ack (bmb-basket)

FLAGS:
    --json   machine-readable findings (file/line/lint/message)

Exit codes: 0 clean, 1 findings, 2 usage/IO error.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::from(if args.is_empty() { 2 } else { 0 })
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--only" => match iter.next() {
                Some(pass) => only.push(pass.clone()),
                None => {
                    eprintln!("--only needs a pass name\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => {
                if root.replace(PathBuf::from(path)).is_some() {
                    eprintln!("more than one ROOT given\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let config = match build_config(&only) {
        Some(config) => config,
        None => return ExitCode::from(2),
    };
    let root = root.unwrap_or_else(default_root);

    match run_lint(&root, &config) {
        Ok(findings) => {
            if json {
                print!("{}", render_json(&findings));
            } else {
                print!("{}", render(&findings));
            }
            ExitCode::from(u8::from(!findings.is_empty()))
        }
        Err(err) => {
            eprintln!("xtask lint: cannot analyze {}: {err}", root.display());
            ExitCode::from(2)
        }
    }
}

fn build_config(only: &[String]) -> Option<LintConfig> {
    if only.is_empty() {
        return Some(LintConfig::default());
    }
    let mut config = LintConfig::none();
    for pass in only {
        match pass.as_str() {
            "panics" => config.panics = true,
            "floats" => config.floats = true,
            "deps" => config.deps = true,
            "docs" => config.docs = true,
            "locks" => config.locks = true,
            "atomics" => config.atomics = true,
            "durability" => config.durability = true,
            other => {
                eprintln!(
                    "unknown pass `{other}` (panics, floats, deps, docs, locks, \
                     atomics, durability)\n\n{USAGE}"
                );
                return None;
            }
        }
    }
    Some(config)
}

/// The workspace root this binary was compiled in.
fn default_root() -> PathBuf {
    // crates/xtask → crates → workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest)
}
