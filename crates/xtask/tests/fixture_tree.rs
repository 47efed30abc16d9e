//! End-to-end check that `cargo xtask lint` catches deliberately seeded
//! violations in a scratch crate tree, and accepts a clean one.
//!
//! The fixture workspace is materialized under `CARGO_TARGET_TMPDIR` so the
//! test never writes outside the repository's target directory.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

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
    fs::write(root.join(rel), contents).expect("write fixture file");
}

fn run_lint(root: &Path) -> (bool, String) {
    run_lint_args(root, &[])
}

fn run_lint_args(root: &Path, extra: &[&str]) -> (bool, String) {
    let exe = env!("CARGO_BIN_EXE_xtask");
    // The binary resolves the workspace root as CARGO_MANIFEST_DIR/../..,
    // so point the manifest dir at a synthetic crates/xtask inside the tree.
    let out = Command::new(exe)
        .arg("lint")
        .args(extra)
        .env("CARGO_MANIFEST_DIR", root.join("crates/xtask"))
        .output()
        .expect("run xtask lint");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.success(), stdout)
}

#[test]
fn seeded_violations_are_caught() {
    let root = fixture_root("bwpart-audit-seeded");
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
pub fn broken(x: Option<f64>) -> f64 {
    let v = x.unwrap();
    if v == 0.5 { panic!("boom"); }
    v
}

#[allow(clippy::needless_range_loop)]
pub fn silent() {}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "lint must fail on seeded violations:\n{stdout}");
    assert!(
        stdout.contains("[R1]"),
        "unwrap/panic not caught:\n{stdout}"
    );
    assert!(stdout.contains("[R2]"), "float eq not caught:\n{stdout}");
    assert!(
        stdout.contains("[R4]"),
        "bare clippy allow not caught:\n{stdout}"
    );
    assert!(stdout.contains("crates/demo/src/lib.rs:3"), "{stdout}");
}

#[test]
fn seeded_core_producer_without_contract_is_caught() {
    let root = fixture_root("bwpart-audit-core");
    fs::create_dir_all(root.join("crates/core/src")).expect("core tree");
    write(
        &root,
        "crates/core/src/lib.rs",
        r#"
pub fn shares(n: usize) -> Vec<f64> {
    vec![1.0 / n as f64; n]
}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "uncertified producer must fail:\n{stdout}");
    assert!(stdout.contains("[A2]"), "{stdout}");
    assert!(stdout.contains("crates/core/src/lib.rs:2"), "{stdout}");
}

#[test]
fn seeded_experiments_step_loop_is_caught() {
    let root = fixture_root("bwpart-audit-experiments");
    fs::create_dir_all(root.join("crates/experiments/src")).expect("experiments tree");
    write(
        &root,
        "crates/experiments/src/lib.rs",
        r#"
pub fn measure(sys: &mut CmpSystem) -> u64 {
    for _ in 0..1_000 {
        sys.step();
    }
    sys.cycle()
}
"#,
    );
    // The identical loop outside crates/experiments must NOT trip R5.
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
pub fn reference(sys: &mut CmpSystem) {
    for _ in 0..1_000 {
        sys.step();
    }
}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "step loop in experiments must fail:\n{stdout}");
    assert!(stdout.contains("[R5]"), "{stdout}");
    assert!(
        stdout.contains("crates/experiments/src/lib.rs:4"),
        "{stdout}"
    );
    assert!(
        !stdout.contains("crates/demo/src/lib.rs:4"),
        "R5 must be scoped to bwpart-experiments:\n{stdout}"
    );
}

#[test]
fn seeded_hot_loop_registry_call_is_caught() {
    let root = fixture_root("bwpart-audit-hot-obs");
    fs::create_dir_all(root.join("crates/mc/src")).expect("mc tree");
    write(
        &root,
        "crates/mc/src/lib.rs",
        r#"
pub fn tick(registry: &Registry) {
    registry.counter("mc_ticks_total").inc();
}
"#,
    );
    // The identical call outside crates/dram / crates/mc must NOT trip A1.
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
pub fn tick(registry: &Registry) {
    registry.counter("cold_tree_total").inc();
}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "hot-loop registry call must fail:\n{stdout}");
    assert!(stdout.contains("[A1]"), "{stdout}");
    assert!(stdout.contains("crates/mc/src/lib.rs:3"), "{stdout}");
    assert!(
        !stdout.contains("crates/demo/src/lib.rs:3"),
        "A1 must be scoped to the simulator hot trees:\n{stdout}"
    );
}

#[test]
fn seeded_concurrency_violations_are_caught() {
    // Rules R6-R8 over a fixture tree with a vendored pool: exactly the
    // violation mix a careless concurrency patch would introduce.
    let root = fixture_root("bwpart-audit-concurrency");
    fs::create_dir_all(root.join("vendor/rayon/src")).expect("vendor tree");
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
static mut GLOBAL: usize = 0;

pub fn bump(c: &AtomicUsize) -> usize {
    c.fetch_add(1, Ordering::Relaxed)
}

pub fn read(p: *const u32) -> u32 {
    unsafe { *p }
}
"#,
    );
    write(
        &root,
        "vendor/rayon/src/lib.rs",
        r#"
use std::sync::Mutex;

pub fn spawn_direct() {
    std::thread::spawn(|| {});
}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "seeded concurrency violations must fail:\n{stdout}");
    // demo crate: one static mut (R7), one bare Relaxed (R6), one
    // SAFETY-less unsafe that is also missing from the (absent)
    // UNSAFE_AUDIT.md inventory (two R8 findings).
    assert!(
        stdout.contains("[R6]"),
        "bare Relaxed not caught:\n{stdout}"
    );
    assert!(stdout.contains("[R7]"), "static mut not caught:\n{stdout}");
    assert!(stdout.contains("[R8]"), "unsafe not caught:\n{stdout}");
    assert!(
        stdout.contains("crates/demo/src/lib.rs:2"),
        "static mut line:\n{stdout}"
    );
    assert!(
        stdout.contains("not registered in UNSAFE_AUDIT.md"),
        "inventory cross-check missing:\n{stdout}"
    );
    // vendored pool: std::sync and std::thread outside shim.rs.
    assert!(
        stdout.contains("vendor/rayon/src/lib.rs:2"),
        "std::sync in vendor:\n{stdout}"
    );
    assert!(
        stdout.contains("vendor/rayon/src/lib.rs:5"),
        "std::thread in vendor:\n{stdout}"
    );
    let violations = stdout
        .lines()
        .filter(|l| l.contains("[R6]") || l.contains("[R7]") || l.contains("[R8]"))
        .count();
    assert_eq!(violations, 6, "expected exact violation count:\n{stdout}");
}

#[test]
fn clean_concurrency_tree_passes() {
    // Justified orderings, SAFETY comments, a registered inventory, and a
    // shim-only vendored pool: the concurrency rules must stay silent.
    let root = fixture_root("bwpart-audit-concurrency-clean");
    fs::create_dir_all(root.join("vendor/rayon/src")).expect("vendor tree");
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
pub fn bump(c: &AtomicUsize) -> usize {
    // hb: none needed — the counter only hands out unique tokens.
    c.fetch_add(1, Ordering::Relaxed)
}

pub fn read(p: *const u32) -> u32 {
    // SAFETY: caller contract guarantees p is valid and unaliased.
    unsafe { *p }
}
"#,
    );
    write(
        &root,
        "UNSAFE_AUDIT.md",
        "# inventory\n\n- `crates/demo/src/lib.rs` — 1 — guarded raw read\n",
    );
    write(
        &root,
        "vendor/rayon/src/shim.rs",
        "pub use std::sync::Mutex;\npub use std::thread;\n",
    );
    write(
        &root,
        "vendor/rayon/src/lib.rs",
        "mod shim;\npub fn f() { let _ = shim::Mutex::new(()); }\n",
    );
    let (ok, stdout) = run_lint(&root);
    assert!(ok, "clean concurrency fixture must pass:\n{stdout}");
}

#[test]
fn macro_rules_unsafe_counts_at_definition_for_the_inventory() {
    // Pinned semantics: `unsafe` inside a macro_rules! body is one
    // inventory site per occurrence in the definition; invocations add
    // nothing. An audit registering exactly the definition-site count must
    // pass, and registering a per-expansion count must be flagged stale.
    let root = fixture_root("bwpart-audit-macro-unsafe");
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
macro_rules! read_raw {
    ($p:expr) => {
        // SAFETY: callers pin $p valid for reads for the borrow's life.
        unsafe { *$p }
    };
}

pub fn f(p: *const u32) -> u32 {
    read_raw!(p) + read_raw!(p) + read_raw!(p)
}
"#,
    );
    write(
        &root,
        "UNSAFE_AUDIT.md",
        "# inventory\n\n- `crates/demo/src/lib.rs` — 1 — macro-wrapped raw read\n",
    );
    let (ok, stdout) = run_lint(&root);
    assert!(
        ok,
        "definition-site count must satisfy the audit:\n{stdout}"
    );

    // Per-expansion accounting (3 call sites) is the drift this pins out.
    write(
        &root,
        "UNSAFE_AUDIT.md",
        "# inventory\n\n- `crates/demo/src/lib.rs` — 3 — macro-wrapped raw read\n",
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "per-expansion count must be stale:\n{stdout}");
    assert!(
        stdout.contains("lists 3 unsafe site(s)") && stdout.contains("the source has 1"),
        "{stdout}"
    );
}

#[test]
fn stale_unsafe_inventory_is_caught() {
    let root = fixture_root("bwpart-audit-stale-inventory");
    write(&root, "crates/demo/src/lib.rs", "pub fn f() {}\n");
    write(
        &root,
        "UNSAFE_AUDIT.md",
        "- `crates/demo/src/lib.rs` — 2 — no longer true\n",
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "stale inventory must fail:\n{stdout}");
    assert!(stdout.contains("stale inventory entry"), "{stdout}");
}

#[test]
fn seeded_wildcard_scheme_match_is_caught() {
    let root = fixture_root("bwpart-audit-r10");
    fs::create_dir_all(root.join("crates/core/src")).expect("core tree");
    let src = r#"
pub fn exponent(s: PartitionScheme) -> Option<f64> {
    match s {
        PartitionScheme::Equal => Some(0.0),
        PartitionScheme::Proportional => Some(1.0),
        _ => None,
    }
}
"#;
    write(&root, "crates/core/src/lib.rs", src);
    // The identical match outside crates/core / crates/bwpartd must NOT
    // trip R10: exhaustiveness is a scheme/service-crate obligation.
    write(&root, "crates/demo/src/lib.rs", src);
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "wildcard scheme match must fail:\n{stdout}");
    assert!(stdout.contains("[R10]"), "{stdout}");
    assert!(stdout.contains("crates/core/src/lib.rs:6"), "{stdout}");
    assert!(
        !stdout.contains("crates/demo/src/lib.rs:6"),
        "R10 must be scoped to the scheme/service crates:\n{stdout}"
    );
}

#[test]
fn seeded_unit_mixing_is_caught() {
    let root = fixture_root("bwpart-audit-r11");
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
pub fn overdue(now_cycles: u64, deadline_ns: u64) -> bool {
    now_cycles > deadline_ns
}

pub fn fine(now_cycles: u64, deadline_ns: u64, freq: f64) -> bool {
    let deadline_cycles = ns_to_cycles(deadline_ns, freq);
    now_cycles > deadline_cycles
}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "cycles/ns comparison must fail:\n{stdout}");
    assert!(stdout.contains("[R11]"), "{stdout}");
    assert!(stdout.contains("crates/demo/src/lib.rs:3"), "{stdout}");
    assert!(
        !stdout.contains("crates/demo/src/lib.rs:8"),
        "explicit conversion must satisfy R11:\n{stdout}"
    );
}

#[test]
fn seeded_unwired_obs_macro_is_caught() {
    let root = fixture_root("bwpart-audit-r12");
    fs::create_dir_all(root.join("crates/mc/src")).expect("mc tree");
    let src = r#"
pub fn tick(&mut self) {
    obs_count!(self.obs, mc_ticks);
}
"#;
    // No trace wiring in the manifest: the call site can never fire.
    write(
        &root,
        "crates/mc/Cargo.toml",
        "[package]\nname = \"bwpart-mc\"\n\n[dependencies]\nbwpart-obs = { workspace = true }\n",
    );
    write(&root, "crates/mc/src/lib.rs", src);
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "unwired obs macro must fail:\n{stdout}");
    assert!(stdout.contains("[R12]"), "{stdout}");
    assert!(stdout.contains("crates/mc/src/lib.rs:3"), "{stdout}");

    // Wiring the feature through the manifest resolves it.
    let root = fixture_root("bwpart-audit-r12-wired");
    fs::create_dir_all(root.join("crates/mc/src")).expect("mc tree");
    write(
        &root,
        "crates/mc/Cargo.toml",
        "[package]\nname = \"bwpart-mc\"\n\n[dependencies]\n\
         bwpart-obs = { workspace = true }\n\n[features]\n\
         trace = [\"bwpart-obs/trace\"]\n",
    );
    write(&root, "crates/mc/src/lib.rs", src);
    write(&root, "crates/demo/src/lib.rs", "pub fn ok() {}\n");
    let (ok, stdout) = run_lint(&root);
    assert!(ok, "wired obs macro must pass:\n{stdout}");
}

#[test]
fn seeded_lock_order_violations_are_caught() {
    let root = fixture_root("bwpart-audit-r13");
    fs::create_dir_all(root.join("crates/bwpartd/src")).expect("bwpartd tree");
    write(
        &root,
        "crates/bwpartd/src/server.rs",
        r#"
// lint: lock-order: engine < tracer
pub fn bad(engine: &Mutex<E>, tracer: &Mutex<T>) {
    let t = tracer.lock().unwrap_or_else(|p| p.into_inner());
    let e = engine.lock().unwrap_or_else(|p| p.into_inner());
    drop((t, e));
}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "out-of-order acquisition must fail:\n{stdout}");
    assert!(stdout.contains("[A4]"), "{stdout}");
    assert!(
        stdout.contains("crates/bwpartd/src/server.rs:5"),
        "{stdout}"
    );
    assert!(
        stdout.contains("`engine` acquired while `tracer` is held"),
        "{stdout}"
    );

    // The declared order, followed, passes — and an undeclared lock fails.
    let root = fixture_root("bwpart-audit-r13-clean");
    fs::create_dir_all(root.join("crates/bwpartd/src")).expect("bwpartd tree");
    write(
        &root,
        "crates/bwpartd/src/server.rs",
        r#"
// lint: lock-order: engine < tracer
pub fn good(engine: &Mutex<E>, tracer: &Mutex<T>) {
    let e = engine.lock().unwrap_or_else(|p| p.into_inner());
    let t = tracer.lock().unwrap_or_else(|p| p.into_inner());
    drop((e, t));
}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(ok, "declared-order acquisition must pass:\n{stdout}");

    write(
        &root,
        "crates/bwpartd/src/server.rs",
        r#"
// lint: lock-order: engine < tracer
pub fn good(engine: &Mutex<E>, ring: &Mutex<R>) {
    let e = engine.lock().unwrap_or_else(|p| p.into_inner());
    drop(e);
    let r = ring.lock().unwrap_or_else(|p| p.into_inner());
    drop(r);
}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(!ok, "a lock named in no table must fail:\n{stdout}");
    assert!(
        stdout.contains("crates/bwpartd/src/server.rs:6:")
            && stdout.contains("[A4] lock `ring` is named in no lock-order table"),
        "{stdout}"
    );
}

#[test]
fn json_findings_artifact_has_stable_schema() {
    let root = fixture_root("bwpart-audit-json");
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
pub fn broken(x: Option<f64>) -> f64 {
    x.unwrap()
}

pub fn tolerated(x: Option<f64>) -> f64 {
    // lint: allow(R1): fixture — exercised by the suppressed-findings path
    x.unwrap()
}
"#,
    );
    let (ok, stdout) = run_lint_args(&root, &["--json"]);
    assert!(!ok, "active finding must still fail --json runs:\n{stdout}");
    assert!(stdout.contains("\"schema_version\": 1"), "{stdout}");
    assert!(stdout.contains("\"tool\": \"bwpart-audit\""), "{stdout}");
    assert!(stdout.contains("\"rule\": \"R1\""), "{stdout}");
    assert!(
        stdout.contains("\"path\": \"crates/demo/src/lib.rs\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"line\": 3"), "{stdout}");
    assert!(stdout.contains("\"snippet\": \"x.unwrap()\""), "{stdout}");
    // Suppressed findings stay visible in the artifact, with their reason.
    assert!(stdout.contains("\"suppressed\": true"), "{stdout}");
    assert!(
        stdout.contains("exercised by the suppressed-findings path"),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"counts\": {\"total\": 2, \"active\": 1, \"suppressed\": 1}"),
        "{stdout}"
    );

    // A clean tree still emits the full schema and exits zero.
    let root = fixture_root("bwpart-audit-json-clean");
    write(&root, "crates/demo/src/lib.rs", "pub fn ok() {}\n");
    let (ok, stdout) = run_lint_args(&root, &["--json"]);
    assert!(ok, "clean tree must pass --json:\n{stdout}");
    assert!(
        stdout.contains("\"counts\": {\"total\": 0, \"active\": 0, \"suppressed\": 0}"),
        "{stdout}"
    );
}

#[test]
fn explain_subcommand_prints_rationale() {
    let root = fixture_root("bwpart-audit-explain");
    let (ok, stdout) = run_lint_args(&root, &["--explain", "R10"]);
    assert!(ok, "--explain must succeed:\n{stdout}");
    assert!(stdout.contains("R10"), "{stdout}");
    assert!(stdout.contains("variant"), "{stdout}");
    let (ok, _) = run_lint_args(&root, &["--explain", "R99"]);
    assert!(!ok, "--explain must reject unknown rules");
}

#[test]
fn clean_tree_passes() {
    let root = fixture_root("bwpart-audit-clean");
    write(
        &root,
        "crates/demo/src/lib.rs",
        r#"
//! A well-behaved module.

/// Clamp helper using a total order.
pub fn pick(a: f64, b: f64) -> f64 {
    match a.total_cmp(&b) {
        std::cmp::Ordering::Less => b,
        _ => a,
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: Option<f64> = Some(1.0);
        assert!(v.unwrap() > 0.5);
    }
}
"#,
    );
    let (ok, stdout) = run_lint(&root);
    assert!(ok, "clean fixture must pass:\n{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}
