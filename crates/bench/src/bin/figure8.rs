//! Regenerates **Figure 8** of the paper: multithreaded throughput
//! (Mops/s) for each operation mix × key range × thread count × structure.
//!
//! The paper's grid: mixes {50i-50d, 20i-10d, 0i-0d} × key ranges
//! {1e2, 1e4, 1e6} × threads {1..128 on a 128-way SPARC}; thread counts are
//! scaled to this host. STM structures are skipped for the 1e6 range, as in
//! the paper (prefilling them takes orders of magnitude too long).
//!
//! Quick run: `cargo run --release -p bench --bin figure8`
//! Paper-scale: `NBTREE_BENCH_FULL=1 cargo run --release -p bench --bin figure8`

use bench::{bench_threads, key_ranges, print_row, trial_duration, trials};
use workload::{measure, Mix, SuiteConfig, ALL_MAPS};

fn main() {
    let duration = trial_duration();
    let n_trials = trials();
    // Suite-construction knobs, parsed exactly once; each range block
    // re-sizes the sharded façade's boundary table via `for_key_range`
    // (a NBTREE_SHARD_SPAN-pinned span wins) — its cells would otherwise
    // measure a one-shard table at every range other than the default.
    let base_cfg = SuiteConfig::from_env();
    // Host-derived sweep, overridable via NBTREE_BENCH_THREADS (the CI
    // bench-smoke job pins it to `1,2` to stay within its budget).
    let threads = bench_threads(None);
    let ranges = key_ranges();
    println!(
        "# Figure 8: throughput (Mops/s); {} trial(s) x {:?} per cell; host threads {:?}",
        n_trials, duration, threads
    );
    for mix in Mix::ALL {
        for &range in &ranges {
            let cfg = base_cfg.for_key_range(range);
            println!("\n## mix {} key range [0,{})", mix.label(), range);
            print_row(
                "threads",
                &threads.iter().map(|t| t.to_string()).collect::<Vec<_>>(),
            );
            for name in ALL_MAPS {
                // Paper: STM structures omitted at 1e6 (prefill too slow).
                if range >= 1_000_000 && *name == "rbstm" {
                    print_row(name, &vec!["-".into(); threads.len()]);
                    continue;
                }
                let cells: Vec<String> = threads
                    .iter()
                    .map(|&t| {
                        let (mops, _) = measure(name, &cfg, t, mix, range, duration, n_trials);
                        format!("{mops:.3}")
                    })
                    .collect();
                print_row(name, &cells);
            }
        }
    }
}
