//! The analyzer tests the analyzer: lint the seeded-violation fixture
//! workspace under `fixtures/ws` and assert the exact findings, then
//! lint the real workspace and assert it is clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use bmb_xtask::{run_lint, Lint, LintConfig};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

/// `(lint, relative path, line)` triples, sorted, for comparison.
fn triples(findings: &[bmb_xtask::Finding]) -> Vec<(Lint, String, usize)> {
    let mut v: Vec<(Lint, String, usize)> = findings
        .iter()
        .map(|f| (f.lint, f.file.to_string_lossy().replace('\\', "/"), f.line))
        .collect();
    v.sort();
    v
}

#[test]
fn fixture_workspace_yields_exactly_the_seeded_findings() {
    let findings = run_lint(&fixture_root(), &LintConfig::default()).expect("fixture lint runs");
    let got = triples(&findings);
    let want: Vec<(Lint, String, usize)> = vec![
        (Lint::Panic, "crates/quest/src/lib.rs".into(), 5),
        (Lint::Panic, "crates/stats/src/lib.rs".into(), 8),
        (Lint::FloatEq, "crates/stats/src/lib.rs".into(), 19),
        (Lint::LossyCast, "crates/stats/src/lib.rs".into(), 24),
        (Lint::Dependency, "Cargo.toml".into(), 9),
        (Lint::Dependency, "crates/stats/Cargo.toml".into(), 7),
        (Lint::Dependency, "crates/stats/Cargo.toml".into(), 11),
        (Lint::MissingDocs, "crates/stats/src/lib.rs".into(), 17),
        (Lint::ForbiddenEscape, "crates/stats/src/lib.rs".into(), 14),
        (Lint::LockOrder, "crates/core/src/lib.rs".into(), 31),
        (Lint::LockOrder, "crates/core/src/lib.rs".into(), 38),
        (Lint::LockOrder, "crates/core/src/lib.rs".into(), 45),
        (Lint::LockOrder, "crates/core/src/lib.rs".into(), 53),
        (Lint::LockReentrant, "crates/core/src/lib.rs".into(), 67),
        (Lint::LockAcrossIo, "crates/core/src/lib.rs".into(), 74),
        (
            Lint::AtomicRelaxedHandoff,
            "crates/core/src/lib.rs".into(),
            89,
        ),
        (
            Lint::AtomicRelaxedHandoff,
            "crates/core/src/lib.rs".into(),
            94,
        ),
        (Lint::RenameNoSync, "crates/basket/src/wal.rs".into(), 57),
        (Lint::RenameNoSync, "crates/basket/src/scrub.rs".into(), 15),
        (Lint::AckNoSync, "crates/basket/src/wal.rs".into(), 36),
    ];
    let mut want = want;
    want.sort();
    assert_eq!(
        got, want,
        "seeded fixture findings diverged; analyzer precision or recall regressed"
    );
}

#[test]
fn single_pass_configs_isolate_their_lint() {
    let root = fixture_root();
    let only_deps = LintConfig {
        deps: true,
        ..LintConfig::none()
    };
    let findings = run_lint(&root, &only_deps).expect("deps-only lint runs");
    assert_eq!(findings.len(), 3);
    assert!(findings.iter().all(|f| f.lint == Lint::Dependency));

    let only_panics = LintConfig {
        panics: true,
        ..LintConfig::none()
    };
    let findings = run_lint(&root, &only_panics).expect("panics-only lint runs");
    assert!(findings
        .iter()
        .all(|f| matches!(f.lint, Lint::Panic | Lint::ForbiddenEscape)));
    assert_eq!(findings.len(), 3);

    let only_locks = LintConfig {
        locks: true,
        ..LintConfig::none()
    };
    let findings = run_lint(&root, &only_locks).expect("locks-only lint runs");
    assert!(findings.iter().all(|f| f.lint.pass() == "locks"));
    assert_eq!(findings.len(), 6);

    let only_durability = LintConfig {
        durability: true,
        ..LintConfig::none()
    };
    let findings = run_lint(&root, &only_durability).expect("durability-only lint runs");
    assert!(findings.iter().all(|f| f.lint.pass() == "durability"));
    assert_eq!(findings.len(), 3);
}

/// A split that moves the WAL ack path out of `wal.rs`, or renames it
/// away from `pub fn append*`, must not switch ack-before-sync off
/// silently: the durability pass flags the missing ack surface itself.
#[test]
fn durability_pass_flags_a_missing_ack_surface() {
    let only_durability = LintConfig {
        durability: true,
        ..LintConfig::none()
    };
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let split = run_lint(&fixtures.join("ws_wal_split"), &only_durability).expect("lint runs");
    assert_eq!(
        triples(&split),
        vec![(Lint::AckNoSync, "crates/basket/src/lib.rs".to_string(), 1)],
        "a durability crate without wal.rs is a finding"
    );
    let renamed =
        run_lint(&fixtures.join("ws_wal_no_append"), &only_durability).expect("lint runs");
    assert_eq!(
        triples(&renamed),
        vec![(Lint::AckNoSync, "crates/basket/src/wal.rs".to_string(), 1)],
        "a wal.rs without `pub fn append*` is a finding"
    );
}

/// CI gate: every pass must catch *something* on the seeded fixtures —
/// a pass that reports zero findings there has silently stopped seeing.
#[test]
fn every_pass_reports_findings_on_fixtures() {
    let findings = run_lint(&fixture_root(), &LintConfig::default()).expect("fixture lint runs");
    for pass in [
        "panics",
        "floats",
        "deps",
        "docs",
        "locks",
        "atomics",
        "durability",
    ] {
        assert!(
            findings.iter().any(|f| f.lint.pass() == pass),
            "pass `{pass}` reported zero findings on the seeded fixtures"
        );
    }
}

/// The machine-readable renderer emits one object per finding with the
/// stable field order `file`, `line`, `lint`, `message`.
#[test]
fn json_rendering_is_stable_and_parseable() {
    let findings = run_lint(&fixture_root(), &LintConfig::default()).expect("fixture lint runs");
    let json = bmb_xtask::render_json(&findings);
    assert!(json.starts_with('[') && json.ends_with("]\n"));
    assert_eq!(json.matches("{\"file\":").count(), findings.len());
    assert_eq!(
        json.matches("\"line\":").count(),
        findings.len(),
        "every object carries a line field"
    );
    // Field order is part of the interface: file, line, lint, message.
    for obj in json.split("{\"file\":").skip(1) {
        let line_at = obj.find("\"line\":").expect("line present");
        let lint_at = obj.find("\"lint\":").expect("lint present");
        let msg_at = obj.find("\"message\":").expect("message present");
        assert!(
            line_at < lint_at && lint_at < msg_at,
            "field order is stable"
        );
    }
    assert!(json.contains("\"lint\":\"lock-order\""));
    assert!(json.contains("\"lint\":\"ack-no-sync\""));

    let empty = bmb_xtask::render_json(&[]);
    assert_eq!(empty, "[]\n");
}

#[test]
fn real_workspace_is_clean() {
    let findings =
        run_lint(&workspace_root(), &LintConfig::default()).expect("workspace lint runs");
    let rendered = bmb_xtask::render(&findings);
    assert!(
        findings.is_empty(),
        "the real tree must lint clean:\n{rendered}"
    );
}

#[test]
fn binary_exits_nonzero_on_fixtures_and_zero_on_real_tree() {
    let exe = env!("CARGO_BIN_EXE_bmb-xtask");

    let on_fixtures = Command::new(exe)
        .arg("lint")
        .arg(fixture_root())
        .output()
        .expect("binary runs on fixtures");
    assert_eq!(
        on_fixtures.status.code(),
        Some(1),
        "seeded violations must exit 1; stdout:\n{}",
        String::from_utf8_lossy(&on_fixtures.stdout)
    );

    let on_real = Command::new(exe)
        .arg("lint")
        .arg(workspace_root())
        .output()
        .expect("binary runs on workspace");
    assert_eq!(
        on_real.status.code(),
        Some(0),
        "the real tree must exit 0; stdout:\n{}",
        String::from_utf8_lossy(&on_real.stdout)
    );

    let usage = Command::new(exe).arg("--help").output().expect("help runs");
    assert_eq!(usage.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&usage.stdout).contains("USAGE"));
}
