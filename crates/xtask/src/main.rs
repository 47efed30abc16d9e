//! `cargo xtask` — repo-local automation for the bwpart workspace.
//!
//! Subcommands:
//!
//! * `lint` — the bwpart-audit static-analysis pass: per-file rules plus
//!   the interprocedural rules A2–A4 over the workspace call graph (see
//!   [`lint`] for the rules). Text, JSON and SARIF output.
//! * `bench` — the perf-regression harness: builds and runs the
//!   `bench_sim` binary from `bwpart-bench` in release mode, which times
//!   the canonical workloads and writes `BENCH_sim.json`.
//! * `bench-serve` — the `bwpartd` service harness: builds and runs the
//!   `bench_serve` binary, which measures wire-protocol throughput and
//!   latency against a live loopback server plus epoch-decision latency
//!   in the bare engine, and writes `BENCH_serve.json`.
//! * `check-concurrency` — the loomlite model check: rebuilds the
//!   vendored crates with `--cfg loomlite` (aliasing their sync
//!   primitives to the controlled scheduler) and runs both drivers — the
//!   pool's `loomlite_check` (deque push/steal, thread-count override,
//!   nested-`par_iter`) and the reactor's `mio_loomlite_check` (mailbox
//!   handoff, wake dedup, shutdown races).
//!
//! ```text
//! cargo xtask lint              # scan crates/*/src + vendor/{rayon,mio}/src
//! cargo xtask lint --rules      # print the rule catalogue
//! cargo xtask lint --json       # machine-readable findings (schema v1)
//! cargo xtask lint --sarif      # SARIF 2.1.0 for code-scanning upload
//! cargo xtask lint --explain A2 # long-form rationale for one rule
//! cargo xtask bench             # full benchmark, writes BENCH_sim.json
//! cargo xtask bench --smoke     # tiny cycle budget for CI smoke runs
//! cargo xtask bench --check     # exit 1 on >10% regression vs committed numbers
//! cargo xtask bench-serve       # bwpartd service bench, writes BENCH_serve.json
//! cargo xtask check-concurrency # explore pool schedules, exit 1 on races
//! cargo xtask check-concurrency -- --min-total 20000 --dfs 8000
//! ```

use std::env;
use std::path::PathBuf;
use std::process::Command;
use std::process::ExitCode;

use xtask::lint;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask <lint [--rules | --json | --sarif | --explain <code>] \
         | bench [--smoke] [--reps N] [--out PATH] [--check] \
         | bench-serve [--smoke] [--out PATH] [--check] \
         | check-concurrency [-- --min-total N --dfs N --random N]>"
    );
    eprintln!();
    eprintln!("subcommands:");
    eprintln!(
        "  lint               run the bwpart-audit pass over crates/*/src + vendor/{{rayon,mio}}/src \
         (--json / --sarif for the CI artifacts, --explain <code> for rationale)"
    );
    eprintln!("  bench              run the perf-regression harness (bench_sim)");
    eprintln!("  bench-serve        run the bwpartd service harness (bench_serve)");
    eprintln!("  check-concurrency  run the loomlite model checks (pool + reactor drivers)");
    ExitCode::from(2)
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `crates/xtask`, so two up.
fn workspace_root() -> PathBuf {
    let manifest = env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let mut root = PathBuf::from(manifest);
    root.pop();
    root.pop();
    root
}

fn run_lint(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--rules") {
        println!("bwpart-audit rules (suppress with `// lint: allow(<rule>): <reason>`):");
        for rule in lint::Rule::ALL {
            println!("  {:<4} {}", rule.code(), rule.describe());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        let Some(code) = args.get(pos + 1) else {
            eprintln!("--explain needs a rule code (see --rules)");
            return usage();
        };
        return match lint::Rule::from_code(code) {
            Some(rule) => {
                println!("{}  {}", rule.code(), rule.describe());
                println!();
                println!("{}", rule.explain());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown rule `{code}` (see --rules)");
                ExitCode::from(2)
            }
        };
    }
    let mut render: fn(&[lint::Finding]) -> String = lint::render_text;
    for arg in args {
        match arg.as_str() {
            "--json" => render = lint::render_json,
            "--sarif" => render = lint::render_sarif,
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let root = workspace_root();
    match lint::lint_tree(&root) {
        Ok(findings) => {
            print!("{}", render(&findings));
            if findings.iter().any(|f| !f.suppressed) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bwpart-audit: failed to scan {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}

/// Shell out to a release-built `bwpart-bench` binary (`bench_sim` or
/// `bench_serve`), forwarding flags. Runs from the workspace root so the
/// default `BENCH_*.json` lands there regardless of where `cargo xtask`
/// was invoked.
fn run_bench(bin: &str, args: &[String]) -> ExitCode {
    for arg in args {
        match arg.as_str() {
            "--smoke" | "--reps" | "--out" | "--check" => {}
            other if !other.starts_with("--") => {} // value for --reps/--out
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let status = Command::new(env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .current_dir(workspace_root())
        .args(["run", "--release", "-p", "bwpart-bench", "--bin", bin, "--"])
        .args(args)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cargo xtask bench ({bin}): failed to run cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Build and run the vendored crates' loomlite drivers with the shims
/// aliased to the model checker (`--cfg loomlite`): the pool's
/// `loomlite_check` and the reactor's `mio_loomlite_check`. A dedicated
/// target dir keeps the flag from thrashing the main build's fingerprints.
fn run_check_concurrency(args: &[String]) -> ExitCode {
    let root = workspace_root();
    let mut rustflags = env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.is_empty() {
        rustflags.push(' ');
    }
    rustflags.push_str("--cfg loomlite");
    for (manifest, bin) in [
        ("vendor/rayon/Cargo.toml", "loomlite_check"),
        ("vendor/mio/Cargo.toml", "mio_loomlite_check"),
    ] {
        let status = Command::new(env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .current_dir(&root)
            .env("RUSTFLAGS", rustflags.clone())
            .env("CARGO_TARGET_DIR", root.join("target").join("loomlite"))
            .args([
                "run",
                "--release",
                "--manifest-path",
                manifest,
                "--bin",
                bin,
                "--",
            ])
            .args(args.iter().filter(|a| *a != "--"))
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(_) => return ExitCode::FAILURE,
            Err(e) => {
                eprintln!("cargo xtask check-concurrency: failed to run cargo: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("bench") => run_bench("bench_sim", &args[1..]),
        Some("bench-serve") => run_bench("bench_serve", &args[1..]),
        Some("check-concurrency") => run_check_concurrency(&args[1..]),
        _ => usage(),
    }
}
