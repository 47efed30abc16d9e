//! End-to-end checks for the interprocedural rules A2–A4 of
//! `cargo xtask lint` against scratch crate trees: seeded violations must
//! be caught through the CLI, clean trees must pass, suppression markers
//! must be honoured, and the SARIF/JSON plumbing must behave as CI
//! consumes it.
//!
//! Fixture trees are materialized under `CARGO_TARGET_TMPDIR`, like the
//! lint fixtures.

mod common;

use common::{fixture_root, run_lint, write};
use serde_json::Value;
use xtask::lint::Rule;

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

/// A2 covers the epoch policy's crate: a decision producer in
/// `crates/mc` with no reachable certification fails, one that certifies
/// through its solve passes, and the same code outside the scoped crates
/// is not checked.
#[test]
fn a2_covers_the_epoch_policy_crate() {
    let policy = r#"
pub fn what_if(n: usize) -> Result<Decision, PolicyError> {
    solve(n)
}
pub fn guess(n: usize) -> Result<Decision, PolicyError> {
    Ok(Decision { beta: vec![1.0 / n as f64; n] })
}
fn solve(n: usize) -> Result<Decision, PolicyError> {
    let beta = vec![1.0 / n as f64; n];
    ensures_simplex!(beta);
    Ok(Decision { beta })
}
"#;
    let root = fixture_root("bwpart-analyze-a2-mc");
    write(&root, "crates/mc/src/epoch.rs", policy);
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(!ok, "uncertified decision producer must fail:\n{stdout}");
    assert!(
        stdout.contains("crates/mc/src/epoch.rs") && stdout.contains("`guess`"),
        "{stdout}"
    );
    assert!(!stdout.contains("`what_if`"), "{stdout}");

    let outside = fixture_root("bwpart-analyze-a2-cmp");
    write(&outside, "crates/cmp/src/runner.rs", policy);
    let (ok, stdout) = run_lint(&outside, &[]);
    assert!(ok, "A2 is scoped to core, mc and bwpartd:\n{stdout}");
}

/// A2 covers the model's owned partition results: an uncertified
/// `SharesOutcome` or `QosPartition` producer in `crates/core` fails, and
/// the same producers certifying their output pass.
#[test]
fn a2_covers_shares_outcome_and_qos_partition() {
    let root = fixture_root("bwpart-analyze-a2-results");
    write(
        &root,
        "crates/core/src/schemes.rs",
        r#"
pub fn solve(n: usize) -> Result<SharesOutcome, ModelError> {
    let beta = vec![1.0 / n as f64; n];
    validate_shares(&beta, n)?;
    Ok(SharesOutcome { beta })
}
pub fn solve_unchecked(n: usize) -> Result<SharesOutcome, ModelError> {
    Ok(SharesOutcome { beta: vec![1.0 / n as f64; n] })
}
pub fn partition(caps: Vec<f64>) -> Result<QosPartition, ModelError> {
    let allocation = caps.clone();
    ensures_capped!(allocation, caps);
    Ok(QosPartition { allocation })
}
pub fn partition_unchecked(caps: Vec<f64>) -> Result<QosPartition, ModelError> {
    Ok(QosPartition { allocation: caps })
}
fn validate_shares(_beta: &[f64], _n: usize) -> Result<(), ModelError> {
    Ok(())
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(!ok, "uncertified partition results must fail:\n{stdout}");
    assert!(
        stdout.contains("`solve_unchecked`") && stdout.contains("`partition_unchecked`"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("`solve`") && !stdout.contains("`partition`"),
        "certified producers must pass:\n{stdout}"
    );
}

/// A2 exempts a result only when the result itself is borrowed: an
/// uncertified producer whose error type borrows (`&'static str`) fails,
/// while an `Option<&Decision>` accessor (the shape of
/// `EpochPolicy::published`) passes.
#[test]
fn a2_exempts_only_borrowed_results() {
    let root = fixture_root("bwpart-analyze-a2-borrow");
    write(
        &root,
        "crates/core/src/schemes.rs",
        r#"
pub fn solve_or_reason(n: usize) -> Result<SharesOutcome, &'static str> {
    Ok(SharesOutcome { beta: vec![1.0 / n as f64; n] })
}
"#,
    );
    write(
        &root,
        "crates/mc/src/epoch.rs",
        r#"
pub struct EpochPolicy {
    last: Option<Decision>,
}
impl EpochPolicy {
    pub fn published(&self) -> Option<&Decision> {
        self.last.as_ref()
    }
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(
        !ok,
        "an owned result beside a borrowed error must fail:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/core/src/schemes.rs:2") && stdout.contains("`solve_or_reason`"),
        "{stdout}"
    );
    assert_eq!(
        stdout.matches("[A2]").count(),
        1,
        "the reference accessor must stay exempt:\n{stdout}"
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

/// Call-graph edge cases, end to end, each the only route from a share
/// producer to its certifier: trait-object dispatch fans out to every
/// impl, a call inside a closure counts for the enclosing fn,
/// `#[cfg(test)]` callees stay invisible to live code, and re-exported
/// names resolve through the alias. An uncertified `leak` beside each
/// reached producer shows that A2 ran.
#[test]
fn call_graph_edge_cases_resolve_through_the_cli() {
    let leak = "pub fn leak(n: usize) -> Vec<f64> {\n    vec![1.0 / n as f64; n]\n}\n";
    let only_leak = |stdout: &str| stdout.matches("[A2]").count() == 1 && stdout.contains("`leak`");

    let root = fixture_root("bwpart-analyze-edges");
    let dispatch = r#"
pub trait Certify {
    fn check(&self, beta: &[f64]);
}
pub struct Simplex;
impl Certify for Simplex {
    fn check(&self, beta: &[f64]) {
        validate_shares(beta);
    }
}
pub fn solve(n: usize, c: &dyn Certify) -> Vec<f64> {
    let beta = vec![1.0 / n as f64; n];
    let run = || c.check(&beta); // closure capture keeps the edge on solve
    run();
    beta
}
"#;
    write(
        &root,
        "crates/core/src/solver.rs",
        &format!("{dispatch}{leak}"),
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(
        !ok && only_leak(&stdout),
        "trait-object dispatch + closure attribution must reach the \
         certifier:\n{stdout}"
    );

    // cfg(test)-masked callee: the only certifying fn of that name is
    // test-gated, so the producer is uncertified.
    let root = fixture_root("bwpart-analyze-edges-test-masked");
    write(
        &root,
        "crates/core/src/solver.rs",
        r#"
pub fn solve(n: usize) -> Vec<f64> {
    let beta = vec![1.0 / n as f64; n];
    certify(&beta);
    beta
}
fn certify(_beta: &[f64]) {}

#[cfg(test)]
mod tests {
    fn certify(beta: &[f64]) {
        validate_shares(beta);
    }
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(
        !ok && stdout.contains("`solve`"),
        "test-gated callees must stay invisible:\n{stdout}"
    );

    // Re-exported path: the alias resolves to the underlying fn.
    let root = fixture_root("bwpart-analyze-edges-reexport");
    write(
        &root,
        "crates/core/src/lib.rs",
        "pub use crate::detail::check_impl as certify;\n",
    );
    write(
        &root,
        "crates/core/src/detail.rs",
        "pub fn check_impl(beta: &[f64]) {\n    validate_shares(beta);\n}\n",
    );
    let service = r#"
use bwpart_core::certify;
pub fn shares(n: usize) -> Vec<f64> {
    let beta = vec![1.0 / n as f64; n];
    certify(&beta);
    beta
}
"#;
    write(
        &root,
        "crates/bwpartd/src/engine.rs",
        &format!("{service}{leak}"),
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(
        !ok && only_leak(&stdout),
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
        "crates/core/src/metrics.rs",
        r#"
// lint: allow(A2): speedups are per-app ratios, not a share vector
pub fn speedups(ipc_shared: &[f64], ipc_alone: &[f64]) -> Vec<f64> {
    ipc_shared.iter().zip(ipc_alone).map(|(s, a)| s / a).collect()
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(ok, "suppressed finding must pass:\n{stdout}");
    assert!(stdout.contains("1 suppressed"), "{stdout}");

    let (ok, json_out) = run_lint(&root, &["--json"]);
    assert!(ok, "{json_out}");
    let j: Value = serde_json::from_str(&json_out).expect("json parses");
    assert_eq!(j["counts"]["suppressed"].as_f64(), Some(1.0));
    assert_eq!(j["findings"][0]["rule"].as_str(), Some("A2"));
    let justification = j["findings"][0]["justification"]
        .as_str()
        .unwrap_or_default();
    assert!(
        justification.contains("per-app ratios"),
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
    let j: Value = serde_json::from_str(&sarif_out).expect("sarif parses");
    assert_eq!(j["version"].as_str(), Some("2.1.0"));
    assert!(j["$schema"]
        .as_str()
        .is_some_and(|s| s.contains("sarif-2.1.0")));
    let rules = j["runs"][0]["tool"]["driver"]["rules"]
        .as_array()
        .expect("rules");
    assert_eq!(rules.len(), Rule::ALL.len());
    let results = j["runs"][0]["results"].as_array().expect("results");
    assert_eq!(results.len(), 1);
    assert_eq!(results[0]["ruleId"].as_str(), Some("A2"));
    let location = &results[0]["locations"][0]["physicalLocation"];
    let uri = location["artifactLocation"]["uri"].as_str();
    assert_eq!(uri, Some("crates/core/src/solver.rs"));
    assert!(location["region"]["startLine"]
        .as_f64()
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
