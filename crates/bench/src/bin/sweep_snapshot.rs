//! Print the scheme-sweep outcome fingerprint for determinism diffing.
//!
//! The CI `determinism-matrix` job runs this binary under each
//! `RAYON_NUM_THREADS` ∈ {1, 2, 4, 8} with per-core clocks on and off,
//! and diffs the outputs pairwise: every cell of the matrix must be
//! bit-identical, or the pool's index-ordered merge or the per-core
//! clocks have changed observable simulation results.
//!
//! ```text
//! sweep_snapshot [--full] [--no-fast-forward]
//! ```
//!
//! `--full` uses the full phase budgets instead of the CI smoke budgets;
//! `--no-fast-forward` runs the per-cycle reference.

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut smoke = true;
    let mut fast_forward = true;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--full" => smoke = false,
            "--no-fast-forward" => fast_forward = false,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!("usage: sweep_snapshot [--full] [--no-fast-forward]");
                return ExitCode::from(2);
            }
        }
    }
    println!(
        "{}",
        bwpart_bench::perf::sweep_fingerprint(fast_forward, smoke)
    );
    ExitCode::SUCCESS
}
