//! `bench_sim` — the perf-regression runner invoked by `cargo xtask bench`.
//!
//! ```text
//! bench_sim [--smoke] [--reps N] [--out PATH] [--check]
//! ```
//!
//! Times the canonical workloads (see [`bwpart_bench::perf`]), prints a
//! human-readable summary, and writes the machine-readable report to
//! `BENCH_sim.json` (or `--out PATH`). Exit status is non-zero only on a
//! real failure (argument error, I/O error, or an outcome-determinism
//! panic inside the harness) — never on absolute timing, so CI smoke runs
//! don't flake on slow runners. Two *relative* gates exist:
//!
//! * the observability guardrail: in smoke mode, a metrics-attached sweep
//!   more than [`bwpart_bench::perf::OBS_OVERHEAD_BUDGET_PCT`] percent
//!   (plus a sub-millisecond absolute slack for scheduler jitter) slower
//!   than the detached sweep fails the run (a ratio on the same machine
//!   in the same process, so runner speed cancels out);
//! * `--check`: before writing, the committed report at the `--out` path
//!   is loaded and the fresh numbers are compared like-for-like (same
//!   case, budget, and [`bwpart_bench::perf::CaseEnv`]). Any `optimized`
//!   case more than [`bwpart_bench::perf::CHECK_REGRESSION_PCT`] percent
//!   plus [`bwpart_bench::perf::CHECK_ABS_SLACK_MS`] slower fails the
//!   run; cases measured under a different environment are skipped with
//!   a note, so a 16-core workstation never "regresses" numbers
//!   committed from the 1-core CI container.

use std::env;
use std::fs;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_sim [--smoke] [--reps N] [--out PATH] [--check]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut smoke = false;
    let mut reps = 3usize;
    let mut out_path = String::from("BENCH_sim.json");
    let mut check = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => reps = n,
                _ => {
                    eprintln!("--reps needs a positive integer");
                    return usage();
                }
            },
            "--out" => match it.next() {
                Some(p) => out_path = p.clone(),
                None => {
                    eprintln!("--out needs a path");
                    return usage();
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    // Load the committed baseline *before* the fresh run overwrites it.
    let committed = if check {
        match fs::read_to_string(&out_path) {
            Ok(s) => match serde_json::from_str::<bwpart_bench::perf::BenchReport>(&s) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("bench_sim: --check: parse {out_path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("bench_sim: --check: read {out_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let report = bwpart_bench::perf::run(smoke, reps);

    println!(
        "bench_sim: {} mode, {} pool thread(s), best of {} rep(s)",
        if report.smoke { "smoke" } else { "full" },
        report.threads,
        report.reps
    );
    for case in &report.cases {
        println!(
            "  {:>16}: baseline {:>9.3} ms  optimized {:>9.3} ms  speedup {:.2}x  \
             ({:.2e} cyc/s optimized)",
            case.name,
            case.baseline.wall_ms,
            case.optimized.wall_ms,
            case.speedup,
            case.optimized.cycles_per_sec,
        );
    }
    println!(
        "  snapshot: clone {:.1} ns/call, reuse {:.1} ns/call",
        report.snapshot.clone_ns_per_call, report.snapshot.reuse_ns_per_call
    );
    println!(
        "  cache: L1 hit {:.2} ns, L2 miss {:.2} ns, LLC masked miss {:.2} ns per access",
        report.cache.l1_hit_ns_per_access,
        report.cache.l2_miss_ns_per_access,
        report.cache.llc_masked_miss_ns_per_access
    );
    println!(
        "  probe: issue check {:.2} ns, attribution {:.2} ns per call",
        report.probe.issue_check_ns_per_call, report.probe.attribution_ns_per_call
    );
    println!(
        "  obs guardrail: detached {:.3} ms, attached {:.3} ms, overhead {:+.2}% (budget {:.0}%)",
        report.obs.detached_wall_ms,
        report.obs.attached_wall_ms,
        report.obs.overhead_pct,
        bwpart_bench::perf::OBS_OVERHEAD_BUDGET_PCT,
    );

    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_sim: serialize report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = fs::write(&out_path, json + "\n") {
        eprintln!("bench_sim: write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("bench_sim: wrote {out_path}");

    if let Some(committed) = committed {
        let outcome = bwpart_bench::perf::check(&committed, &report);
        for (name, delta) in &outcome.compared {
            println!(
                "  check {name}: {delta:+.1}% vs committed (budget {:.0}%)",
                bwpart_bench::perf::CHECK_REGRESSION_PCT
            );
        }
        for (name, why) in &outcome.skipped {
            println!("  check {name}: skipped — {why}");
        }
        // Always surface coverage shrinkage in one greppable line, pass or
        // fail — a gate that silently skipped everything looks like a pass.
        if let Some(summary) = outcome.skipped_summary() {
            println!("  check: {summary}");
        }
        if !outcome.passed() {
            for r in &outcome.regressions {
                eprintln!("bench_sim: REGRESSION {r}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "  check: {} case(s) compared, {} skipped, no regressions",
            outcome.compared.len(),
            outcome.skipped.len()
        );
    }

    if smoke && !report.obs.within_budget() {
        eprintln!(
            "bench_sim: metrics overhead {:.2}% exceeds the {:.0}% + {:.1} ms budget",
            report.obs.overhead_pct,
            bwpart_bench::perf::OBS_OVERHEAD_BUDGET_PCT,
            bwpart_bench::perf::OBS_OVERHEAD_ABS_SLACK_MS
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
