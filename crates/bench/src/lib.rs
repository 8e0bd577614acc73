//! Shared configuration and table printing for the figure-regeneration
//! binaries (`figure8`, `figure9`, `height_bound`, `ablation_violations`,
//! `rebalance_cost`), the artifact driver `sweep` (one declarative table
//! of tiers writing the `BENCH_*.json` files) and its gate `bench_gate`,
//! and the docs-gate bins (`linkcheck`, `readme_table`).
//!
//! The knobs parsed here are the *bench* family (`NBTREE_BENCH_*`:
//! durations, trials, thread sweeps, key ranges). A knob that is set but
//! empty or malformed stops the binary with exit status 2 and a message
//! naming the variable, rather than silently running some other sweep.
//! Suite-construction knobs (`NBTREE_SHARDS`, `NBTREE_SHARD_SPAN`) are
//! parsed exactly once per process by `workload::SuiteConfig::from_env`
//! and threaded through `make_map`/`measure` as a value — no binary
//! mutates the environment, and `nblint`'s `cfg-env` rule keeps it that
//! way.

pub mod gate;
pub mod json;
pub mod links;
pub mod readme;

use std::str::FromStr;
use std::time::Duration;

/// Per-trial duration: `NBTREE_BENCH_SECS` (seconds, float), default 0.5s;
/// the paper used 5s — set `NBTREE_BENCH_FULL=1` for paper-scale runs.
pub fn trial_duration() -> Duration {
    if full_scale() {
        return Duration::from_secs(5);
    }
    knob("NBTREE_BENCH_SECS", secs, "a positive number of seconds")
        .unwrap_or(Duration::from_millis(500))
}

/// Trials per configuration: `NBTREE_BENCH_TRIALS`, default 1 (paper: 5).
pub fn trials() -> usize {
    if full_scale() {
        return 5;
    }
    knob("NBTREE_BENCH_TRIALS", positive, "a positive integer").unwrap_or(1)
}

/// `NBTREE_BENCH_FULL=1` switches to the paper's 5s × 5-trial methodology.
pub fn full_scale() -> bool {
    std::env::var("NBTREE_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

const LIST: &str = "a comma list of positive integers";

/// The paper's key ranges: 1e2 (high contention), 1e4 (moderate), 1e6 (low).
/// Override with `NBTREE_BENCH_RANGES=100,10000` for quicker runs.
pub fn key_ranges() -> Vec<u64> {
    knob("NBTREE_BENCH_RANGES", positive_list, LIST).unwrap_or_else(|| vec![100, 10_000, 1_000_000])
}

/// The single key range of the `sweep` artifacts: the first entry of
/// `NBTREE_BENCH_RANGES`, default 10 000.
pub fn first_key_range() -> u64 {
    knob("NBTREE_BENCH_RANGES", positive_list, LIST).map_or(10_000, |ranges: Vec<u64>| ranges[0])
}

/// Width of range scans in the range workloads: `NBTREE_BENCH_RANGE_WIDTH`
/// (keys per scan), default 100. A scan starting at `k` covers
/// `[k, k + width)`; one scan counts as one operation in Mops/s.
pub fn range_width() -> u64 {
    knob("NBTREE_BENCH_RANGE_WIDTH", positive, "a positive integer").unwrap_or(100)
}

/// Thread counts to sweep: `NBTREE_BENCH_THREADS=1,2` if set (the CI
/// bench jobs use it to stay tiny), else `default`, else the paper's
/// {1, 32, 64, 96, 128} scaled to this host.
pub fn bench_threads(default: Option<&[usize]>) -> Vec<usize> {
    knob("NBTREE_BENCH_THREADS", positive_list, LIST)
        .or_else(|| default.map(<[usize]>::to_vec))
        .unwrap_or_else(|| host_sweep(host_cores()))
}

/// The paper's {1, 32, 64, 96, 128}-of-128 sweep scaled to `cores`.
fn host_sweep(cores: usize) -> Vec<usize> {
    if cores <= 2 {
        // Few-core host: sweep oversubscription instead. Parallel speedup
        // cannot manifest, but the blocking-vs-non-blocking contrast does:
        // preempted lock holders stall lock-based structures while the
        // non-blocking ones keep making progress through helping.
        return vec![1, 2, 4, 8];
    }
    let mut counts = vec![1, cores / 4, cores / 2, (3 * cores) / 4, cores];
    counts.retain(|&c| c >= 1);
    counts.dedup();
    counts
}

/// Reads the bench knob `var`: `None` when unset. A value `parse`
/// rejects — an empty one included — exits with status 2, naming the
/// variable and `expected`.
fn knob<T>(var: &str, parse: fn(&str) -> Option<T>, expected: &str) -> Option<T> {
    let raw = std::env::var_os(var)?;
    raw.to_str().and_then(parse).or_else(|| {
        eprintln!("{var}={raw:?}: expected {expected}");
        std::process::exit(2)
    })
}

/// A positive number, surrounding whitespace allowed.
fn positive<T: FromStr + PartialOrd + Default>(text: &str) -> Option<T> {
    text.trim().parse().ok().filter(|v| *v > T::default())
}

/// A comma list of positive numbers: every entry must parse, so the list
/// is never empty.
fn positive_list<T: FromStr + PartialOrd + Default>(text: &str) -> Option<Vec<T>> {
    text.split(',').map(positive).collect()
}

/// A positive, representable number of seconds.
fn secs(text: &str) -> Option<Duration> {
    positive(text).and_then(|s| Duration::try_from_secs_f64(s).ok())
}

/// Parallelism of the host as reported by the OS (1 when unknown) — the
/// provenance every artifact row carries so a reader (human or gate) can
/// tell which cells were measured with real parallelism.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The host-provenance fields appended to every artifact result row:
/// the measuring host's core count and whether the cell ran more worker
/// threads than cores. An oversubscribed cell's Mops/s is
/// scheduler-dominated — comparable across labels only on the same host
/// and kernel — so the bench gate skips those cells instead of gating on
/// them.
pub fn provenance(threads: usize) -> Vec<(&'static str, json::Json)> {
    let cores = host_cores();
    vec![
        ("cores", json::Json::Num(cores as f64)),
        ("oversubscribed", json::Json::Bool(threads > cores)),
    ]
}

/// The latency-percentile fields appended to every artifact result row:
/// `p50_ns`/`p99_ns`/`p999_ns` of the cell's trials merged (all op kinds
/// folded — a row is one mix, so the blend is the workload's own). The
/// fields are optional in the schema: rows from older artifacts simply
/// don't have them, and the gate treats them as absent.
pub fn latency_fields(s: workload::LatencySummary) -> Vec<(&'static str, json::Json)> {
    vec![
        ("p50_ns", json::Json::Num(s.p50_ns as f64)),
        ("p99_ns", json::Json::Num(s.p99_ns as f64)),
        ("p999_ns", json::Json::Num(s.p999_ns as f64)),
    ]
}

/// Human-readable nanoseconds (`850ns`, `3.4µs`, `1.2ms`) for tables.
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// Prints one row of a fixed-width table.
pub fn print_row(first: &str, cells: &[String]) {
    print!("{first:<12}");
    for c in cells {
        print!(" {c:>10}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_rejects_zero_negative_and_garbage() {
        assert_eq!(positive::<usize>("3"), Some(3));
        assert_eq!(positive::<u64>(" 7 "), Some(7));
        for bad in ["", "0", "-1", "abc", "x100", "1.5"] {
            assert_eq!(positive::<u64>(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn positive_list_rejects_any_bad_entry() {
        assert_eq!(positive_list::<u64>("100, 10000"), Some(vec![100, 10_000]));
        for bad in ["", "abc", "x100", "100,", "100,,10", "0", "1,-2"] {
            assert_eq!(positive_list::<u64>(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn secs_rejects_nonpositive_and_unrepresentable() {
        assert_eq!(secs("0.05"), Some(Duration::from_millis(50)));
        for bad in ["", "zz", "0", "-1", "inf", "NaN", "1e300"] {
            assert_eq!(secs(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn host_sweep_starts_at_one_and_ascends() {
        for cores in [1, 2, 3, 4, 8, 128] {
            let c = host_sweep(cores);
            assert_eq!(c[0], 1);
            assert!(c.windows(2).all(|w| w[0] < w[1]), "{cores}: {c:?}");
        }
        assert_eq!(host_sweep(2), [1, 2, 4, 8]);
        assert_eq!(host_sweep(128), [1, 32, 64, 96, 128]);
    }
}
