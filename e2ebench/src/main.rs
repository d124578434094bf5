//! End-to-end and per-layer benchmark of the ifet workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <section7|serve_mixed|stream> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Run from the repository root. Every workload builds its inputs from
//! `--seed`, times its work, checks its outputs, and prints one JSON object
//! as the last line of standard output:
//!
//! ```text
//! {"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 30.1, "unit": "s"}, ...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end metrics of
//! `BENCHMARK.json`; with `--trace 1` they are its per-layer metrics, taken
//! from spans this benchmark records around its own calls into each layer
//! (see [`tracer`]). The program under test is not instrumented and
//! `ifet-obs` stays disabled. `DESIGN.md` beside this file records why each
//! workload exists and which end-to-end metric each layer metric should
//! move.

mod fixture;
mod metrics;
mod section7;
mod serve_mixed;
mod stream;
mod tracer;
mod util;

use metrics::Report;
use std::path::Path;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// The benchmark's directory, relative to the repository root it is run
/// from.
const BASE: &str = "e2ebench";

/// Run one workload with its scratch files under `base/work` (removed when
/// the run ends) and return its report.
pub fn run(args: &Args, base: &Path) -> Result<Report, String> {
    let dir = base
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let out = match args.workload.as_str() {
        "section7" => section7::run(args, &dir),
        "serve_mixed" => serve_mixed::run(args, &dir),
        "stream" => stream::run(args, &dir),
        other => Err(format!(
            "unknown workload {other} (expected section7, serve_mixed or stream)"
        )),
    };
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args, Path::new(BASE)) {
        Ok(report) => {
            println!("{}", report.context_json());
            if args.trace {
                let path = Path::new(BASE)
                    .join("out")
                    .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
                if let Err(e) = report.write_spans(&path) {
                    eprintln!("e2ebench: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("e2ebench: spans written to {}", path.display());
            }
            println!("{}", report.result_json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
