//! SDMMon benchmark: one command per workload, end-to-end metrics when
//! untraced, the per-layer ledger when traced. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fwd-bulk --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run checks its outputs against the repository's oracles before it
//! reports anything; on a divergence it prints the failure to stderr and
//! exits with code 1 without a result line.

mod dataplane;
mod fleet;
mod install;
mod report;

use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <fwd-bulk|hijack-mix|install-2048|fleet-10k> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (see `BENCHMARK.json`).
    pub workload: String,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "fwd-bulk" => dataplane::run(&dataplane::FWD_BULK, &args),
        "hijack-mix" => dataplane::run(&dataplane::HIJACK_MIX, &args),
        "install-2048" => install::run(&args),
        "fleet-10k" => fleet::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(results) => {
            report::print_result(&args, &results);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: output check failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
