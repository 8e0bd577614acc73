//! Shared configuration and table printing for the figure-regeneration
//! binaries (`figure8`, `figure9`, `height_bound`, `ablation_violations`,
//! `rebalance_cost`), the machine-readable artifact bins (`bench_fig8`,
//! `bench_range`, `bench_shard`, `bench_gate`) and the docs-gate bins
//! (`linkcheck`, `readme_table`).
//!
//! The knobs parsed here are the *bench* family (`NBTREE_BENCH_*`:
//! durations, trials, thread sweeps, key ranges). Suite-construction
//! knobs (`NBTREE_SHARDS`, `NBTREE_SHARD_SPAN`) are parsed exactly once
//! per process by `workload::SuiteConfig::from_env` and threaded through
//! `make_map`/`measure` as a value — no binary mutates the environment,
//! and `nblint`'s `cfg-env` rule keeps it that way.

pub mod gate;
pub mod json;
pub mod links;
pub mod readme;

use std::time::Duration;

/// Per-trial duration: `NBTREE_BENCH_SECS` (seconds, float), default 0.5s;
/// the paper used 5s — set `NBTREE_BENCH_FULL=1` for paper-scale runs.
pub fn trial_duration() -> Duration {
    if full_scale() {
        return Duration::from_secs(5);
    }
    let secs: f64 = std::env::var("NBTREE_BENCH_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);
    Duration::from_secs_f64(secs)
}

/// Trials per configuration: `NBTREE_BENCH_TRIALS`, default 1 (paper: 5).
pub fn trials() -> usize {
    if full_scale() {
        return 5;
    }
    std::env::var("NBTREE_BENCH_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// `NBTREE_BENCH_FULL=1` switches to the paper's 5s × 5-trial methodology.
pub fn full_scale() -> bool {
    std::env::var("NBTREE_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The paper's key ranges: 1e2 (high contention), 1e4 (moderate), 1e6 (low).
/// Override with `NBTREE_BENCH_RANGES=100,10000` for quicker runs.
pub fn key_ranges() -> Vec<u64> {
    if let Ok(s) = std::env::var("NBTREE_BENCH_RANGES") {
        return s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
    }
    vec![100, 10_000, 1_000_000]
}

/// The single key range used by the artifact bins (`bench_fig8`,
/// `bench_range`, `bench_shard`): the first entry of
/// `NBTREE_BENCH_RANGES`, default 10 000.
pub fn first_key_range() -> u64 {
    std::env::var("NBTREE_BENCH_RANGES")
        .ok()
        .and_then(|s| s.split(',').next()?.trim().parse().ok())
        .unwrap_or(10_000)
}

/// Width of range scans in the range workloads: `NBTREE_BENCH_RANGE_WIDTH`
/// (keys per scan), default 100. A scan starting at `k` covers
/// `[k, k + width)`; one scan counts as one operation in Mops/s.
pub fn range_width() -> u64 {
    std::env::var("NBTREE_BENCH_RANGE_WIDTH")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or(100)
}

/// Thread counts to sweep: `NBTREE_BENCH_THREADS=1,2` overrides the
/// host-derived default (used by the CI bench-smoke job to stay tiny).
pub fn bench_threads(default: &[usize]) -> Vec<usize> {
    if let Ok(s) = std::env::var("NBTREE_BENCH_THREADS") {
        let v: Vec<usize> = s.split(',').filter_map(|x| x.trim().parse().ok()).collect();
        if !v.is_empty() {
            return v;
        }
    }
    default.to_vec()
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
/// `p50_ns`/`p99_ns`/`p999_ns` of the run's trials merged (all op kinds
/// folded — a row is one mix, so the blend is the workload's own). The
/// fields are optional in the schema: rows from older artifacts simply
/// don't have them, and the gate treats them as absent.
pub fn latency_fields(trials: &[workload::TrialResult]) -> Vec<(&'static str, json::Json)> {
    let s = workload::latency_summary(trials);
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
