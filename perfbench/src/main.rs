//! `perfbench` — the bwpart benchmark.
//!
//! ```text
//! perfbench --workload <paper-grid|llc-coord|serve-coord> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny] [--write-reference]
//! ```
//!
//! Untraced runs (`--trace 0`) print the six end-to-end metrics of one
//! workload; traced runs (`--trace 1`) print the per-layer metrics and
//! write the spans as a Chrome trace under `.bench_out/`. The last line
//! of standard output is always one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod digest;
mod grid;
mod layers;
mod llc;
mod measure;
mod serve;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper-grid|llc-coord|serve-coord> \
--seed <n> --seconds <s> --trace <0|1> [--tiny] [--write-reference]";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed; seed 0 reproduces the repository's own experiment seeds.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Shrink the op set and set-up for smoke tests.
    pub tiny: bool,
    /// Regenerate the workload's reference digests (seed 0 only).
    pub write_reference: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            tiny: false,
            write_reference: false,
        };
        let mut i = 0;
        while i < argv.len() {
            let value = |i: usize| {
                argv.get(i + 1)
                    .cloned()
                    .ok_or_else(|| format!("{} needs a value", argv[i]))
            };
            match argv[i].as_str() {
                "--workload" => args.workload = value(i)?,
                "--seed" => {
                    // Any integer names a seed; negative ones wrap.
                    let v = value(i)?;
                    args.seed = v
                        .parse::<u64>()
                        .or_else(|_| v.parse::<i64>().map(|n| n as u64))
                        .map_err(|e| format!("--seed: {e}"))?;
                }
                "--seconds" => {
                    args.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                }
                "--trace" => {
                    args.trace = match value(i)?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                    }
                }
                "--tiny" => {
                    args.tiny = true;
                    i += 1;
                    continue;
                }
                "--write-reference" => {
                    args.write_reference = true;
                    i += 1;
                    continue;
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
            i += 2;
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if args.write_reference && args.seed != 0 {
            return Err("--write-reference needs --seed 0".into());
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every simulation runs one at a time on the calling thread: on a
    // shared two-vCPU host a wider pool measures its neighbours.
    rayon::pool::set_num_threads(1);
    let report = match args.workload.as_str() {
        "paper-grid" => grid::run(&args),
        "llc-coord" => llc::run(&args),
        "serve-coord" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match report {
        Ok(r) => {
            println!("{}", r.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
