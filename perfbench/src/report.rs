//! Metric names, units and the result line. The two name lists mirror
//! `BENCHMARK.json`: an untraced run reports every end-to-end metric, a
//! traced run every per-layer metric. A layer a workload does not touch
//! reports 0 and is marked `n/a` in the human-readable lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::check::Verdict;
use crate::ladder::Ladder;

pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mops", "Mops/s"),
    ("get_p50_ns", "ns"),
    ("get_p99_ns", "ns"),
    ("update_p50_ns", "ns"),
    ("update_p99_ns", "ns"),
    ("svc_p50_us", "us"),
    ("svc_p99_us", "us"),
    ("svc_max_kops", "kops/s"),
    ("setup_s", "s"),
    ("mem_bytes_per_key", "B"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.submit_ns", "ns"),
    ("service.queue_wait_us", "us"),
    ("service.self_us", "us"),
    ("service.mean_batch", "keys"),
    ("service.keys_per_call", "keys"),
    ("service.flusher_busy_frac", "ratio"),
    ("service.deadline_flush_frac", "ratio"),
    ("sharded.self_ns_per_key", "ns"),
    ("sharded.shards_per_call", "count"),
    ("chromatic.get_ns", "ns"),
    ("chromatic.insert_ns", "ns"),
    ("chromatic.remove_ns", "ns"),
    ("chromatic.bulk_ns_per_key", "ns"),
    ("chromatic.merged_keys_per_scx", "keys"),
    ("chromatic.retries_per_update", "count"),
    ("chromatic.rebalance_steps_per_update", "count"),
    ("chromatic.cleanup_passes_per_update", "count"),
    ("chromatic.height", "levels"),
    ("llxscx.llx_ns", "ns"),
    ("llxscx.scx_ns", "ns"),
    ("llxscx.vlx_ns", "ns"),
    ("llxscx.guard_warm_ns", "ns"),
    ("llxscx.guard_cold_ns", "ns"),
    ("llxscx.collect_ns", "ns"),
    ("ledger.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("loadgen.late_p99_us", "us"),
];

/// Collected metrics plus human-readable notes for one run.
pub struct Report {
    traced: bool,
    values: BTreeMap<&'static str, (f64, Option<u64>)>,
    lines: Vec<String>,
}

impl Report {
    pub fn new(traced: bool) -> Report {
        Report {
            traced,
            values: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    fn names(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.insert(name, value, None);
    }

    /// A percentile, with the number of samples it was taken from.
    pub fn sampled(&mut self, name: &str, value: f64, samples: u64) {
        self.insert(name, value, Some(samples));
    }

    fn insert(&mut self, name: &str, value: f64, samples: Option<u64>) {
        let &(key, _) = self
            .names()
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared for this run"));
        assert!(value.is_finite(), "metric {name} is {value}");
        self.values.insert(key, (value, samples));
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// One ledger row: a layer's time per operation and its share of the
    /// untraced end-to-end time.
    pub fn ledger_line(&mut self, layer: &str, ns: f64, e2e_ns: f64) {
        self.lines.push(format!(
            "ledger {layer:<30} {ns:>12.1} ns/op {:>7.1}%",
            100.0 * ns / e2e_ns
        ));
    }

    pub fn ladder(&mut self, l: &Ladder) {
        self.metric("llxscx.llx_ns", l.llx_ns);
        self.metric("llxscx.scx_ns", l.scx_ns);
        self.metric("llxscx.vlx_ns", l.vlx_ns);
        self.metric("llxscx.guard_warm_ns", l.guard_warm_ns);
        self.metric("llxscx.guard_cold_ns", l.guard_cold_ns);
        self.metric("llxscx.collect_ns", l.collect_ns);
    }

    /// Prints the human-readable lines and, last, the one-line JSON result.
    /// An end-to-end metric that was never set is a bug and panics; an
    /// unset per-layer metric is a layer this workload does not use.
    pub fn print(&self, verdict: &Verdict) {
        for line in &self.lines {
            println!("# {line}");
        }
        for note in &verdict.notes {
            println!("# FAILED: {note}");
        }
        let failed_frac = verdict.failed as f64 / verdict.attempted.max(1) as f64;
        println!(
            "# failed_frac = {failed_frac} ratio ({} of {} ops)",
            verdict.failed, verdict.attempted
        );
        let mut json = String::new();
        for (i, &(name, unit)) in self.names().iter().enumerate() {
            let (value, samples) = match self.values.get(name) {
                Some(&v) => v,
                None if self.traced => {
                    println!("# {name} = n/a (layer not on this workload's path)");
                    (0.0, None)
                }
                None => panic!("end-to-end metric {name} was not measured"),
            };
            if self.values.contains_key(name) {
                match samples {
                    Some(n) => println!("# {name} = {value} {unit} (n={n})"),
                    None => println!("# {name} = {value} {unit}"),
                }
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            verdict.correct(),
            verdict.attempted,
            verdict.failed
        );
    }
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` (nearest rank, 0 when empty).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[((q * (v.len() - 1) as f64).round() as usize).min(v.len() - 1)]
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim only returns free heap pages to the kernel; it
    // takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Resident set size of this process, in bytes (0 where unavailable),
/// after returning free heap pages to the kernel, so that memory the
/// allocator merely keeps cached does not count.
pub fn rss_bytes() -> u64 {
    release_free_heap();
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}
