//! Whole-repo snapshot: the committed tree must be violation-free.
//!
//! This is the merge gate the fixture tests can't provide: a PR that
//! introduces a finding (or suppresses one only in a local config) fails
//! here, because the pass runs against the real workspace sources exactly
//! as CI invokes it. Any suppressions that do exist must carry a written
//! justification, so the waiver budget is visible in review rather than
//! accreting silently.

use std::path::PathBuf;
use std::process::Command;

use xtask::json::Json;
use xtask::lint::Rule;

/// The real workspace root: this test file lives in `crates/xtask/tests`.
fn workspace_root() -> PathBuf {
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    root
}

fn run_lint(extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .args(extra)
        .env("CARGO_MANIFEST_DIR", workspace_root().join("crates/xtask"))
        .output()
        .expect("run xtask lint");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn committed_tree_is_violation_free() {
    let (ok, stdout) = run_lint(&[]);
    assert!(
        ok,
        "the committed tree has lint findings — fix them (or annotate with \
         a reasoned `// lint: allow(<code>): ...`):\n{stdout}"
    );
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn committed_tree_json_report_is_clean_and_justified() {
    let (ok, stdout) = run_lint(&["--json"]);
    assert!(ok, "{stdout}");
    let j = Json::parse(&stdout).expect("json parses");
    assert_eq!(j.get("schema_version").and_then(Json::num), Some(1.0));
    assert_eq!(j.path(&["counts", "active"]).and_then(Json::num), Some(0.0));
    // Every rule is present in the catalogue section.
    let codes: Vec<&str> = j
        .get("rules")
        .and_then(Json::arr)
        .expect("rules")
        .iter()
        .filter_map(|r| r.get("code").and_then(Json::str))
        .collect();
    let all: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
    assert_eq!(codes, all, "{stdout}");
    // Every suppression carries a written reason.
    for f in j.get("findings").and_then(Json::arr).expect("findings") {
        let justification = f.get("justification").and_then(Json::str).unwrap_or("");
        assert!(
            justification.len() > 2,
            "suppression without a written reason: {stdout}"
        );
    }
}

#[test]
fn committed_tree_sarif_is_well_formed_and_clean() {
    let (ok, stdout) = run_lint(&["--sarif"]);
    assert!(ok, "sarif run must pass:\n{stdout}");
    let j = Json::parse(&stdout).expect("sarif parses");
    assert_eq!(j.get("version").and_then(Json::str), Some("2.1.0"));
    let results = j
        .path(&["runs", "0", "results"])
        .and_then(Json::arr)
        .expect("results array");
    // Suppressed results may appear, but every one must carry the
    // in-source suppression marker; none may be active.
    for r in results {
        let suppressions = r.path(&["suppressions", "0", "kind"]).and_then(Json::str);
        assert_eq!(
            suppressions,
            Some("inSource"),
            "active finding in committed tree: {stdout}"
        );
    }
}
