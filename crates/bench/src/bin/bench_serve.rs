//! `bench_serve` — the `bwpartd` service perf runner invoked by
//! `cargo xtask bench-serve`.
//!
//! ```text
//! bench_serve [--smoke] [--out PATH] [--check]
//! ```
//!
//! Measures wire-protocol throughput/latency against live loopback
//! `bwpartd` instances — the synchronous JSON case and the pipelined
//! binary case — plus epoch-decision latency in a bare one-shard map
//! (see [`bwpart_bench::serve_perf`]), prints a
//! human-readable summary, and writes the machine-readable report to
//! `BENCH_serve.json` (or `--out PATH`). Exit status is non-zero only on
//! a real failure — never on absolute timing, so CI smoke runs don't
//! flake on slow runners. With `--check`, the committed report at the
//! `--out` path is loaded first and fresh throughput is compared
//! like-for-like (same case, budget, and
//! [`bwpart_bench::serve_perf::ServeCaseEnv`]); a case more than
//! [`bwpart_bench::serve_perf::SERVE_CHECK_REGRESSION_PCT`] percent
//! slower fails the run, and cases measured under a different
//! environment are skipped with a note.

use std::env;
use std::fs;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: bench_serve [--smoke] [--out PATH] [--check]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut smoke = false;
    let mut out_path = String::from("BENCH_serve.json");
    let mut check = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
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
            Ok(s) => match serde_json::from_str::<bwpart_bench::serve_perf::ServeBenchReport>(&s) {
                Ok(r) => Some(r),
                Err(e) => {
                    eprintln!("bench_serve: --check: parse {out_path}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("bench_serve: --check: read {out_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let report = bwpart_bench::serve_perf::run(smoke);

    println!(
        "bench_serve: {} mode",
        if report.smoke { "smoke" } else { "full" }
    );
    for w in &report.wire {
        println!(
            "  {:>24}: {} conn(s) x {} req  {:>9.0} req/s  p50 {:>7.1} us  p99 {:>7.1} us  \
             ({}, {} shard(s), pipeline {})",
            w.name,
            w.clients,
            w.requests_per_client,
            w.requests_per_sec,
            w.latency.p50_us,
            w.latency.p99_us,
            w.env.codec,
            w.env.shards,
            w.env.pipeline,
        );
    }
    println!(
        "  epoch: {} app(s) x {} epochs ({} repartitions)  p50 {:>7.1} us  p99 {:>7.1} us",
        report.epoch.apps,
        report.epoch.epochs,
        report.epoch.repartitions,
        report.epoch.latency.p50_us,
        report.epoch.latency.p99_us,
    );

    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_serve: serialize report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = fs::write(&out_path, json + "\n") {
        eprintln!("bench_serve: write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("bench_serve: wrote {out_path}");

    if let Some(committed) = committed {
        let outcome = bwpart_bench::serve_perf::check(&committed, &report);
        for (name, delta) in &outcome.compared {
            println!(
                "  check {name}: {delta:+.1}% vs committed (budget {:.0}%)",
                bwpart_bench::serve_perf::SERVE_CHECK_REGRESSION_PCT
            );
        }
        for (name, why) in &outcome.skipped {
            println!("  check {name}: skipped — {why}");
        }
        if let Some(summary) = outcome.skipped_summary() {
            println!("  check: {summary}");
        }
        if !outcome.passed() {
            for r in &outcome.regressions {
                eprintln!("bench_serve: REGRESSION {r}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "  check: {} case(s) compared, {} skipped, no regressions",
            outcome.compared.len(),
            outcome.skipped.len()
        );
    }
    ExitCode::SUCCESS
}
