//! End-to-end checks for the interprocedural rules A1–A4 of
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

/// A1 covers the CMP run loop too: a core's private run-ahead that
/// reaches a per-cycle allocation fails, while the same shape in a cold
/// cmp fn, or a fn of the same name outside `crates/cmp`, passes.
#[test]
fn a1_covers_the_cmp_run_loop() {
    let root = fixture_root("bwpart-analyze-a1-cmp");
    write(
        &root,
        "crates/cmp/src/core.rs",
        r#"
pub struct Core;
impl Core {
    pub fn run_ahead(&mut self, from: u64, limit: u64) -> u64 {
        let trail = record(from);
        trail.len() as u64 + limit
    }
    pub fn report(&self) -> Vec<u64> {
        let mut v = Vec::new();
        v.push(1);
        v
    }
}
fn record(cycle: u64) -> Vec<u64> {
    vec![cycle]
}
"#,
    );
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
pub fn run_ahead(from: u64) -> Vec<u64> {
    vec![from]
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(!ok, "run-ahead allocation must fail:\n{stdout}");
    assert!(
        stdout.contains("A1") && stdout.contains("run_ahead") && stdout.contains("record"),
        "finding must name the call path:\n{stdout}"
    );
    assert_eq!(
        stdout.matches("[A1]").count(),
        1,
        "only the hot path may be flagged:\n{stdout}"
    );
    assert!(!stdout.contains("crates/demo/src/lib.rs"), "{stdout}");
}

/// The cache lanes are stack-only: growing a container inside
/// `access_if_hit` in `crates/cmp/src/cache.rs` fails, while the same
/// `.push` in another cmp file's `access_if_hit` is amortized scratch
/// growth, which the run-loop origin exempts.
#[test]
fn a1_cache_access_must_not_grow_containers() {
    let root = fixture_root("bwpart-analyze-a1-cache");
    let src = r#"
pub struct Cache {
    touched: Vec<u64>,
}
impl Cache {
    pub fn access_if_hit(&mut self, addr: u64) -> bool {
        self.touched.push(addr);
        true
    }
}
"#;
    write(&root, "crates/cmp/src/cache.rs", src);
    write(&root, "crates/cmp/src/probe.rs", src);
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(!ok, "growth in a cache access must fail:\n{stdout}");
    assert_eq!(
        stdout.matches("[A1]").count(),
        1,
        "only cache.rs may be flagged:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/cmp/src/cache.rs:7") && stdout.contains("access_if_hit"),
        "{stdout}"
    );
}

/// A cached probe's refold path is stack-only: a `.push` in `bus_fold` in
/// `crates/dram/src/soa.rs` fails, although `sched_probe`, which calls it
/// directly, is a run-loop origin that exempts growth; the same fn in
/// another dram file is not flagged.
#[test]
fn a1_probe_refold_must_not_grow_containers() {
    let root = fixture_root("bwpart-analyze-a1-refold");
    let fold = r#"
pub struct ChannelCore {
    seen: Vec<u64>,
}
impl ChannelCore {
    pub fn bus_fold(&mut self, start: u64) -> u64 {
        self.seen.push(start);
        start
    }
}
"#;
    write(&root, "crates/dram/src/soa.rs", fold);
    write(&root, "crates/dram/src/fold.rs", fold);
    write(
        &root,
        "crates/dram/src/dram.rs",
        r#"
use crate::soa::ChannelCore;
pub struct DramSystem {
    core: ChannelCore,
}
impl DramSystem {
    pub fn sched_probe(&mut self, now: u64) -> u64 {
        self.core.bus_fold(now)
    }
}
"#,
    );
    let (ok, stdout) = run_lint(&root, &[]);
    assert!(!ok, "growth in the refold path must fail:\n{stdout}");
    assert_eq!(
        stdout.matches("[A1]").count(),
        1,
        "only soa.rs may be flagged:\n{stdout}"
    );
    assert!(
        stdout.contains("crates/dram/src/soa.rs:7") && stdout.contains("bus_fold"),
        "{stdout}"
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
    let j: Value = serde_json::from_str(&json_out).expect("json parses");
    assert_eq!(j["counts"]["suppressed"].as_f64(), Some(1.0));
    let justification = j["findings"][0]["justification"]
        .as_str()
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
