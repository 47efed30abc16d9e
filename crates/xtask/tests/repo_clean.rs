//! Whole-repo snapshot: the committed tree must be violation-free.
//!
//! This is the merge gate the fixture tests can't provide: a PR that
//! introduces a finding (or suppresses one only in a local config) fails
//! here, because the pass runs against the real workspace sources exactly
//! as CI invokes it. Any suppressions that do exist must carry a written
//! justification, so the waiver budget is visible in review rather than
//! accreting silently.

mod common;

use std::path::PathBuf;

use common::run_lint;
use serde_json::Value;
use xtask::lint::Rule;

/// The real workspace root: this test file lives in `crates/xtask/tests`.
fn workspace_root() -> PathBuf {
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    root.pop();
    root.pop();
    root
}

#[test]
fn committed_tree_is_violation_free() {
    let (ok, stdout) = run_lint(&workspace_root(), &[]);
    assert!(
        ok,
        "the committed tree has lint findings — fix them (or annotate with \
         a reasoned `// lint: allow(<code>): ...`):\n{stdout}"
    );
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn committed_tree_json_report_is_clean_and_justified() {
    let (ok, stdout) = run_lint(&workspace_root(), &["--json"]);
    assert!(ok, "{stdout}");
    let j: Value = serde_json::from_str(&stdout).expect("json parses");
    assert_eq!(j["schema_version"].as_f64(), Some(1.0));
    assert_eq!(j["counts"]["active"].as_f64(), Some(0.0));
    // Every rule is present in the catalogue section.
    let codes: Vec<&str> = j["rules"]
        .as_array()
        .expect("rules")
        .iter()
        .filter_map(|r| r["code"].as_str())
        .collect();
    let all: Vec<&str> = Rule::ALL.iter().map(|r| r.code()).collect();
    assert_eq!(codes, all, "{stdout}");
    // Every suppression carries a written reason.
    for f in j["findings"].as_array().expect("findings") {
        let justification = f["justification"].as_str().unwrap_or("");
        assert!(
            justification.len() > 2,
            "suppression without a written reason: {stdout}"
        );
    }
}

#[test]
fn committed_tree_sarif_is_well_formed_and_clean() {
    let (ok, stdout) = run_lint(&workspace_root(), &["--sarif"]);
    assert!(ok, "sarif run must pass:\n{stdout}");
    let j: Value = serde_json::from_str(&stdout).expect("sarif parses");
    assert_eq!(j["version"].as_str(), Some("2.1.0"));
    let results = j["runs"][0]["results"].as_array().expect("results array");
    // Suppressed results may appear, but every one must carry the
    // in-source suppression marker; none may be active.
    for r in results {
        let suppressions = r["suppressions"][0]["kind"].as_str();
        assert_eq!(
            suppressions,
            Some("inSource"),
            "active finding in committed tree: {stdout}"
        );
    }
}
