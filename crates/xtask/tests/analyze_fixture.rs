//! End-to-end checks for the interprocedural rules A1–A4 of
//! `cargo xtask lint` against scratch crate trees: seeded violations must
//! be caught through the CLI, clean trees must pass, suppression markers
//! must be honoured, and the SARIF/JSON plumbing must behave as CI
//! consumes it.
//!
//! Fixture trees are materialized under `CARGO_TARGET_TMPDIR`, like the
//! lint fixtures.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::json::Json;
use xtask::lint::Rule;

fn fixture_root(name: &str) -> PathBuf {
    let base = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let root = base.join(name);
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear stale fixture");
    }
    fs::create_dir_all(root.join("crates/demo/src")).expect("create fixture tree");
    root
}

fn write(root: &Path, rel: &str, contents: &str) {
    let path = root.join(rel);
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).expect("fixture dirs");
    }
    fs::write(path, contents).expect("write fixture file");
}

fn run_lint(root: &Path, extra: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .args(extra)
        .env("CARGO_MANIFEST_DIR", root.join("crates/xtask"))
        .output()
        .expect("run xtask lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}

/// The seeded A1 regression mirrors the bug this pass was built to catch:
/// a hot fn that looks clean locally but reaches a per-tick allocation
/// through a helper (the gather-scratch pattern).
#[test]
fn a1_allocation_behind_helper_fails_through_the_cli() {
    let root = fixture_root("bwpart-analyze-a1");
    write(
        &root,
        "crates/mc/src/controller.rs",
        r#"
pub struct Controller;
impl Controller {
    pub fn tick(&mut self) {
        fan_out();
    }
}
fn fan_out() -> Vec<u64> {
    let mut slots = Vec::new();
    slots.push(1);
    slots
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(!ok, "helper allocation must fail:\n{stdout}");
    assert!(stdout.contains("A1"), "{stdout}");
    assert!(
        stdout.contains("tick") && stdout.contains("fan_out"),
        "finding must name the call path:\n{stdout}"
    );
}

/// A2: a pub share-vector producer whose certification lives in a callee
/// passes; one with no reachable certification fails.
#[test]
fn a2_certification_must_be_reachable() {
    let root = fixture_root("bwpart-analyze-a2");
    write(
        &root,
        "crates/core/src/solver.rs",
        r#"
pub fn solve(n: usize) -> Vec<f64> {
    let shares = raw(n);
    finish(&shares);
    shares
}
pub fn leak(n: usize) -> Vec<f64> {
    raw(n)
}
fn raw(n: usize) -> Vec<f64> {
    vec![1.0 / n as f64; n]
}
fn finish(shares: &[f64]) {
    validate_shares(shares);
}
fn validate_shares(_s: &[f64]) {}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(!ok, "uncertified producer must fail:\n{stdout}");
    assert!(
        stdout.contains("A2") && stdout.contains("`leak`"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("`solve`"),
        "certification via callee must satisfy A2:\n{stdout}"
    );
}

/// A3: a `_ns` value flowing into a `_cycles` parameter across a call
/// boundary is flagged; the conversion fn itself is exempt.
#[test]
fn a3_unit_mismatch_across_the_call_boundary() {
    let root = fixture_root("bwpart-analyze-a3");
    write(
        &root,
        "crates/dram/src/timing.rs",
        r#"
pub fn issuable_after(now_cycles: u64) -> u64 {
    now_cycles + 4
}
pub fn ns_to_cycles(t_ns: u64) -> u64 {
    t_ns * 2
}
pub fn caller(now_ns: u64) -> u64 {
    let ready = ns_to_cycles(now_ns);
    issuable_after(now_ns) + ready
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(!ok, "unit mismatch must fail:\n{stdout}");
    assert!(
        stdout.contains("A3") && stdout.contains("now_ns") && stdout.contains("now_cycles"),
        "{stdout}"
    );
    // Exactly one A3 finding: the conversion call is exempt.
    assert_eq!(
        stdout.matches("[A3]").count(),
        1,
        "conversion fns must be exempt:\n{stdout}"
    );
}

/// A4 regression mirroring the engine→table nesting: a guard held in one
/// crate over a call that acquires a lock in another, with no declared
/// order relating the pair.
#[test]
fn a4_cross_crate_nesting_and_declared_order() {
    let root = fixture_root("bwpart-analyze-a4");
    let server = r#"
// lint: lock-order: engine < table
use crate::engine::Engine;
fn lock_engine(m: &Mutex<Engine>) -> MutexGuard<'_, Engine> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
pub fn telemetry(engine: &Mutex<Engine>) {
    lock_engine(engine).trace_event();
}
"#;
    write(&root, "crates/bwpartd/src/server.rs", server);
    write(
        &root,
        "crates/bwpartd/src/engine.rs",
        r#"
pub struct Engine;
impl Engine {
    pub fn trace_event(&self) {
        crate::obs_push();
    }
}
"#,
    );
    write(
        &root,
        "crates/bwpartd/src/lib.rs",
        r#"
pub fn obs_push() {
    let g = ring.lock().unwrap_or_else(|p| p.into_inner());
    drop(g);
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(!ok, "undeclared cross-fn nesting must fail:\n{stdout}");
    assert!(
        stdout.contains("A4") && stdout.contains("`ring`") && stdout.contains("`engine`"),
        "{stdout}"
    );

    // Declaring the pair turns the same tree clean.
    write(
        &root,
        "crates/bwpartd/src/server.rs",
        &server.replace(
            "lock-order: engine < table",
            "lock-order: engine < table < ring",
        ),
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(ok, "declared nesting must pass:\n{stdout}");
}

/// Call-graph edge cases, end to end: trait-object dispatch fans out to
/// every impl, nested closures attribute calls to the enclosing fn,
/// `#[cfg(test)]` callees stay invisible to live code, and re-exported
/// names resolve through the alias.
#[test]
fn call_graph_edge_cases_resolve_through_the_cli() {
    let root = fixture_root("bwpart-analyze-edges");
    write(
        &root,
        "crates/mc/src/sched.rs",
        r#"
pub trait Scheduler {
    fn pick(&self);
}
pub struct FrFcfs;
impl Scheduler for FrFcfs {
    fn pick(&self) {
        let v: Vec<u64> = Vec::new();
        drop(v);
    }
}
pub struct Controller;
impl Controller {
    pub fn tick(&mut self, s: &dyn Scheduler) {
        let run = || s.pick(); // closure capture keeps the edge on tick
        run();
    }
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(
        !ok && stdout.contains("A1") && stdout.contains("pick"),
        "trait-object dispatch + closure attribution must reach the \
         allocation:\n{stdout}"
    );

    // cfg(test)-masked callee: the same shape is invisible when the only
    // allocating impl is test-gated.
    let root = fixture_root("bwpart-analyze-edges-test-masked");
    write(
        &root,
        "crates/mc/src/sched.rs",
        r#"
pub struct Controller;
impl Controller {
    pub fn tick(&mut self) {
        helper();
    }
}
fn helper() {}

#[cfg(test)]
mod tests {
    fn helper() {
        let v: Vec<u64> = Vec::new();
        drop(v);
    }
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(ok, "test-gated callees must stay invisible:\n{stdout}");

    // Re-exported path: the alias resolves to the underlying fn.
    let root = fixture_root("bwpart-analyze-edges-reexport");
    write(
        &root,
        "crates/core/src/lib.rs",
        "pub use crate::detail::alloc_impl as build;\n",
    );
    write(
        &root,
        "crates/core/src/detail.rs",
        "pub fn alloc_impl() -> Vec<u64> { let mut v = Vec::new(); v.push(1); v }\n",
    );
    write(
        &root,
        "crates/mc/src/controller.rs",
        r#"
use bwpart_core::build;
pub struct Controller;
impl Controller {
    pub fn tick(&mut self) {
        let _ = build();
    }
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(
        !ok && stdout.contains("A1") && stdout.contains("alloc_impl"),
        "re-exported callees must resolve:\n{stdout}"
    );
}

/// `lint: allow(A<N>): reason` at the anchor suppresses the finding and
/// the run passes; the suppression is carried into the JSON report.
#[test]
fn allow_markers_suppress_and_are_reported() {
    let root = fixture_root("bwpart-analyze-allow");
    write(
        &root,
        "crates/mc/src/controller.rs",
        r#"
pub struct Controller;
impl Controller {
    pub fn tick(&mut self) {
        cold_init();
    }
}
fn cold_init() {
    // lint: allow(A1): one-shot lazy init measured off the hot loop
    let v: Vec<u64> = Vec::new();
    drop(v);
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(ok, "suppressed finding must pass:\n{stdout}");
    assert!(stdout.contains("1 suppressed"), "{stdout}");

    let (ok, json_out) = run_lint(&root, &["--json"]);
    assert!(ok, "{json_out}");
    let j = Json::parse(&json_out).expect("json parses");
    assert_eq!(
        j.path(&["counts", "suppressed"]).and_then(Json::num),
        Some(1.0)
    );
    let justification = j
        .path(&["findings", "0", "justification"])
        .and_then(Json::str)
        .unwrap_or_default();
    assert!(
        justification.contains("lazy init"),
        "justification must carry the reason: {justification}"
    );
}

/// SARIF output is structurally valid 2.1.0: schema pointer, rule
/// catalogue, result locations, and in-source suppressions.
#[test]
fn sarif_report_is_structurally_valid() {
    let root = fixture_root("bwpart-analyze-sarif");
    write(
        &root,
        "crates/core/src/solver.rs",
        "pub fn raw_shares(n: usize) -> Vec<f64> { vec![0.0; n] }\n",
    );
    let (ok, sarif_out) = run_lint(&root, &["--sarif"]);
    assert!(!ok, "seeded A2 must fail the sarif run too:\n{sarif_out}");
    let j = Json::parse(&sarif_out).expect("sarif parses");
    assert_eq!(j.get("version").and_then(Json::str), Some("2.1.0"));
    assert!(j
        .get("$schema")
        .and_then(Json::str)
        .is_some_and(|s| s.contains("sarif-2.1.0")));
    let rules = j
        .path(&["runs", "0", "tool", "driver", "rules"])
        .and_then(Json::arr)
        .expect("rules");
    assert_eq!(rules.len(), Rule::ALL.len());
    let results = j
        .path(&["runs", "0", "results"])
        .and_then(Json::arr)
        .expect("results");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].get("ruleId").and_then(Json::str), Some("A2"));
    let uri = results[0]
        .path(&[
            "locations",
            "0",
            "physicalLocation",
            "artifactLocation",
            "uri",
        ])
        .and_then(Json::str);
    assert_eq!(uri, Some("crates/core/src/solver.rs"));
    assert!(results[0]
        .path(&["locations", "0", "physicalLocation", "region", "startLine"])
        .and_then(Json::num)
        .is_some_and(|l| l >= 1.0));
}

/// `--rules` lists the catalogue; `--explain` covers every rule code.
#[test]
fn rules_and_explain_cover_the_catalogue() {
    let root = fixture_root("bwpart-analyze-rules");
    write(&root, "crates/demo/src/lib.rs", "pub fn ok() {}\n");
    let (ok, stdout) = run_lint(&root, &["--rules"]);
    assert!(ok, "{stdout}");
    for rule in Rule::ALL {
        let code = rule.code();
        assert!(stdout.contains(code), "missing {code}:\n{stdout}");
        let (ok, explain) = run_lint(&root, &["--explain", code]);
        assert!(
            ok && explain.contains(rule.explain()),
            "--explain {code}:\n{explain}"
        );
    }
    let (ok, _) = run_lint(&root, &["--explain", "A9"]);
    assert!(!ok, "unknown rule code must be rejected");
}
