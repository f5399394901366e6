//! One benchmark process:
//!
//! ```text
//! perfbench setup --workload <name> --seed <n>
//! perfbench run   --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! `setup` stops at the first timed request and reports the set-up time;
//! `run` continues through the timed phase and the checks. The last line
//! of standard output is the report as one JSON object.

use perfbench::Workload;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench <setup|run> --workload <wire_steady|wire_drift|cosim_shared_gpu> \
--seed <n> [--seconds <s>] [--trace <0|1>] [--spans <file>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let setup = match argv.next().as_deref() {
        Some("setup") => true,
        Some("run") => false,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let (mut workload, mut seed, mut seconds, mut traced, mut spans) =
        (None, None, 0.0, false, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                };
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: if setup { 0.0 } else { seconds },
        traced: traced && !setup,
        spans,
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = args.workload.run(
        args.seed,
        args.seconds,
        args.traced,
        start,
        args.spans.as_deref(),
    );
    println!("{}", report.to_json().to_string_compact());
    ExitCode::SUCCESS
}
