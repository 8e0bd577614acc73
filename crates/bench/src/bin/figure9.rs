//! Regenerates **Figure 9**: single-threaded throughput of each concurrent
//! structure *relative to the sequential red-black tree* (the
//! `java.util.TreeMap` stand-in), key range 1e6 — the "overhead of the
//! technique" experiment.

use bench::{print_row, trial_duration, trials};
use rand::{rngs::StdRng, Rng, SeedableRng};
use workload::{measure, Mix, SuiteConfig, ALL_MAPS};

/// Single-threaded throughput of the plain sequential `RbTree` under `mix`.
fn sequential_mops(mix: Mix, range: u64, duration: std::time::Duration) -> f64 {
    let mut tree = seqrbt::RbTree::new();
    let mut rng = StdRng::seed_from_u64(42);
    let target = (range as f64 * mix.steady_state_fraction()) as u64;
    let mut inserted = 0u64;
    while inserted < target {
        let k = rng.gen_range(0..range);
        if tree.insert(k, k).is_none() {
            inserted += 1;
        }
    }
    let started = std::time::Instant::now();
    let mut ops = 0u64;
    while started.elapsed() < duration {
        for _ in 0..64 {
            let k = rng.gen_range(0..range);
            let dice = rng.gen_range(0..100);
            if dice < mix.inserts {
                tree.insert(k, k);
            } else if dice < mix.inserts + mix.deletes {
                tree.remove(&k);
            } else {
                std::hint::black_box(tree.get(&k));
            }
            ops += 1;
        }
    }
    ops as f64 / started.elapsed().as_secs_f64() / 1e6
}

fn main() {
    let duration = trial_duration();
    let n_trials = trials();
    let range = 1_000_000;
    // Size the sharded façade's boundary table to this sweep's keyspace
    // (an explicit NBTREE_SHARD_SPAN still wins).
    let cfg = SuiteConfig::from_env().for_key_range(range);
    println!(
        "# Figure 9: single-threaded throughput relative to sequential RBT (key range [0,1e6))"
    );
    let mixes = Mix::ALL;
    print_row(
        "structure",
        &mixes
            .iter()
            .map(|m| m.label().to_string())
            .collect::<Vec<_>>(),
    );
    let baselines: Vec<f64> = mixes
        .iter()
        .map(|&m| sequential_mops(m, range, duration))
        .collect();
    print_row(
        "seq-rbt",
        &baselines
            .iter()
            .map(|_| "1.00x".to_string())
            .collect::<Vec<_>>(),
    );
    for name in ALL_MAPS {
        if *name == "rbstm" {
            // Paper skipped STM at 1e6 (prefill cost); same here.
            print_row(name, &vec!["-".into(); mixes.len()]);
            continue;
        }
        let cells: Vec<String> = mixes
            .iter()
            .zip(&baselines)
            .map(|(&m, &base)| {
                let (mops, _) = measure(name, &cfg, 1, m, range, duration, n_trials);
                format!("{:.2}x", mops / base)
            })
            .collect();
        print_row(name, &cells);
    }
}
