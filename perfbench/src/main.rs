//! `perfbench` — the repository benchmark. One workload per invocation:
//!
//! ```text
//! perfbench --workload <tree-read-1m|tree-update-10k|service-open>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` records spans around every call into a layer and prints
//! the per-layer metrics and the ledger. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod affinity;
mod check;
mod hist;
mod ladder;
mod report;
mod rng;
mod svc;
mod tree;

use std::sync::Arc;

use service::RealClock;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
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
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cpus = affinity::Cpus::detect();
    affinity::warm_up(&cpus);
    let clock = Arc::new(RealClock::new());
    let mut report = report::Report::new(args.trace);
    let mut verdict = check::Verdict::default();
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "tree-read-1m" => tree::run(
            &tree::READ_1M,
            seed,
            secs,
            traced,
            &clock,
            &cpus,
            &mut report,
            &mut verdict,
        ),
        "tree-update-10k" => tree::run(
            &tree::UPDATE_10K,
            seed,
            secs,
            traced,
            &clock,
            &cpus,
            &mut report,
            &mut verdict,
        ),
        "service-open" => svc::run(seed, secs, traced, &clock, &cpus, &mut report, &mut verdict),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    report.print(&verdict);
}
