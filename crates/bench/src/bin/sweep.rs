//! The machine-readable benchmark artifacts, as one declarative table of
//! tiers. A tier is a grid of cells — structure × load × thread count —
//! recorded as one labeled run in its `BENCH_<tier>.json`. Re-running
//! with a different `--label` *merges* into the existing file (replacing
//! a run with the same label), so a baseline captured before an
//! optimization and the candidate live side by side for `bench_gate`:
//!
//! ```text
//! cargo run --release -p bench --bin sweep -- fig8 --label baseline
//! # ... optimize ...
//! cargo run --release -p bench --bin sweep -- fig8 --label optimized
//! ```
//!
//! Tiers:
//!
//! * `fig8` — the paper's three mixes on the chromatic tree; the README
//!   table and the CI bench gate read it.
//! * `range` — ordered range-scan mixes over every registered structure:
//!   pure scans, scans under moderate churn (where the VLX retry path
//!   fires) and under near-maximum churn. One scan of
//!   `NBTREE_BENCH_RANGE_WIDTH` keys counts as one operation.
//! * `hash` — the tree vs. the hopscotch hash map vs. the sharded
//!   hash+tree hybrid on the paper's mixes (`docs/HASHING.md`).
//! * `shard` — the unsharded tree vs. the range-partitioned façade, in
//!   four parts `--tier` can select: `point` (the paper's mixes), `batch`
//!   (batch sizes 1/8/64/512 through the trait batch entry points),
//!   `leafmerge` (clustered runs at batch 64, the single-SCX run-merging
//!   shape) and `skew` (zipfian key popularity). See `docs/SHARDING.md`.
//! * `service` — the batched service front end across flush policies and
//!   client counts (`docs/SERVICE.md`).
//!
//! Every tier sizes the façade's boundary table to the swept key range
//! (an explicit `NBTREE_SHARD_SPAN` still wins), so sharded cells never
//! measure a misconfigured routing table. Each cell's log line is
//! followed by its ratio lines — its Mops/s over each declared baseline
//! cell's at the same thread count — for humans reading the log.
//!
//! Knobs: `NBTREE_BENCH_SECS`, `NBTREE_BENCH_TRIALS`,
//! `NBTREE_BENCH_THREADS` (default per tier), `NBTREE_BENCH_RANGES`
//! (first entry is the key range; default 10000),
//! `NBTREE_BENCH_RANGE_WIDTH`, `NBTREE_SHARDS`; `--label NAME` (default
//! `current`), `--out PATH` (default `BENCH_<tier>.json`), `--tier PART`
//! (`shard` only; default `all`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bench::json::Json;
use rand::{rngs::StdRng, Rng, SeedableRng};
use service::{BatchedService, FlushPolicy, Op, ServiceConfig};
use workload::latency::{calibrate, elapsed_ns, now};
use workload::{make_map, measure, prefill, Histogram, LatencySummary, Mix, SuiteConfig, ALL_MAPS};

const USAGE: &str = "usage: sweep fig8|range|hash|shard|service [--label NAME] [--out PATH] \
                     [--tier all|point|batch|leafmerge|skew]";

/// The structures the shard tier compares: the tree and its façade.
const SHARD_STRUCTURES: [&str; 2] = ["chromatic", "sharded"];

/// The tree, the façade (does skew collapse onto one shard?) and the
/// hash-fronted hybrid (does O(1) point access absorb hot keys?).
const TRIO: [&str; 3] = ["chromatic", "sharded", "hybrid"];

/// Batch sizes of the batch part (1 = the point-op baseline).
const BATCHES: [u32; 4] = [1, 8, 64, 512];

/// Mixes of the batch part: pure inserts isolate the chromatic
/// sorted-bulk path; maximal churn shows batching under the paper's
/// hardest workload.
const BATCH_MIXES: [Mix; 2] = [Mix::updates(100, 0), Mix::updates(50, 50)];

/// Batch size of the leafmerge part — large enough that a 64-run batch
/// is a single maximal run.
const RUN_BATCH: u32 = 64;

/// Clustered run lengths of the leafmerge part; its uniform baseline is
/// run length 1.
const RUNS: [u32; 2] = [8, 64];

/// Mixes of the leafmerge part: pure inserts drive the mini-subtree
/// installs; maximal churn at a half-full steady state drives both merge
/// paths (insert batches install 64-key runs, so the keys remove batches
/// hit are clustered too); pure removes isolate the cached-descent cost
/// of clustered misses (their steady state is an empty dictionary).
const LEAFMERGE_MIXES: [Mix; 3] = [
    Mix::updates(100, 0),
    Mix::updates(50, 50),
    Mix::updates(0, 100),
];

/// Zipfian exponents of the skew part: uniform control, the YCSB
/// default, and past-1 skew where the hottest key alone draws a constant
/// fraction of all operations.
const THETAS: [f64; 3] = [0.0, 0.9, 1.2];

/// The skew part's moderate-churn mix.
const SKEW_MIX: Mix = Mix::updates(20, 10);

/// Flush policies of the service tier: the passthrough baseline, the
/// headline batching point, and a deeper, looser point for the
/// latency-cost curve.
const POLICIES: [Load; 3] = [
    Load::Service(1, 0),
    Load::Service(64, 100),
    Load::Service(256, 400),
];

/// Submissions each service client keeps in flight, so batches can
/// actually accumulate (a one-outstanding-op client could never fill a
/// 64-slot batch).
const WINDOW: usize = 256;

/// What a cell runs.
#[derive(Clone, Copy, PartialEq)]
enum Load {
    /// The standard harness (`workload::measure`) under a mix.
    Mix(Mix),
    /// Windowed 50i-50d clients through a `BatchedService` flushing at
    /// `.0` requests or after `.1` µs.
    Service(usize, u64),
}

impl Load {
    /// The row's `mix` field. A service label names its policy, which
    /// keeps every `structure/mix@threads` gate key unique.
    fn label(self) -> String {
        match self {
            Load::Mix(mix) => mix.label().to_string(),
            Load::Service(max_batch, delay_us) => format!("50i-50d-fb{max_batch}-fd{delay_us}"),
        }
    }
}

/// One structure × load, run at every thread count of the sweep.
struct Cell {
    structure: &'static str,
    load: Load,
    /// Row fields describing the load (`batch`, `run`, `theta`).
    extra: Vec<(&'static str, Json)>,
    /// The baseline cells this cell's Mops/s is divided by in the log:
    /// the tier's ratio lines as (this cell, baseline) pairs. Baselines
    /// run first.
    over: Vec<(&'static str, Load)>,
}

/// One tier of the table.
struct Tier {
    name: &'static str,
    schema: &'static str,
    out: &'static str,
    /// Thread (or client) counts unless `NBTREE_BENCH_THREADS` is set.
    threads: &'static [usize],
    /// Parts `--tier` can select; empty when the tier runs whole.
    parts: &'static [&'static str],
    /// Run fields besides `label`, `range`, `duration_secs`, `trials`.
    header: fn(&Sweep) -> Vec<(&'static str, Json)>,
    cells: fn(&Sweep) -> Vec<Cell>,
}

const TIERS: [Tier; 5] = [
    Tier {
        name: "fig8",
        schema: "bench_fig8/v1",
        out: "BENCH_fig8.json",
        threads: &[1, 2, 4],
        parts: &[],
        header: |_| vec![("structure", Json::Str("chromatic".into()))],
        cells: |_| grid(&["chromatic"], Mix::ALL.map(Load::Mix), |_, _| None),
    },
    Tier {
        name: "range",
        schema: "bench_range/v1",
        out: "BENCH_range.json",
        threads: &[1, 2, 4],
        parts: &[],
        header: |s| vec![("range_width", Json::Num(s.width as f64))],
        cells: |s| {
            let mixes = [
                Mix::updates(0, 0).with_ranges(100, s.width),
                Mix::updates(20, 10).with_ranges(10, s.width),
                Mix::updates(45, 45).with_ranges(10, s.width),
            ];
            grid(ALL_MAPS, mixes.map(Load::Mix), |_, _| None)
        },
    },
    Tier {
        name: "hash",
        schema: "bench_hash/v1",
        out: "BENCH_hash.json",
        threads: &[1, 2, 4, 8],
        parts: &[],
        header: |_| Vec::new(),
        // The hash tier's point-op win over the tree, and the hybrid's
        // composition tax over the pure hash map.
        cells: |_| {
            let structures = ["chromatic", "hashmap", "hybrid"];
            grid(&structures, Mix::ALL.map(Load::Mix), |s, load| match s {
                "hashmap" => Some(("chromatic", load)),
                "hybrid" => Some(("hashmap", load)),
                _ => None,
            })
        },
    },
    Tier {
        name: "shard",
        schema: "bench_shard/v1",
        out: "BENCH_shard.json",
        threads: &[1, 2, 4, 8],
        parts: &["point", "batch", "leafmerge", "skew"],
        header: |s| {
            vec![
                ("tier", Json::Str(s.part.clone())),
                ("shards", Json::Num(s.cfg.shards() as f64)),
            ]
        },
        cells: shard_cells,
    },
    Tier {
        name: "service",
        schema: "bench_service/v1",
        out: "BENCH_service.json",
        threads: &[1, 2, 4, 8],
        parts: &[],
        header: |_| vec![("window", Json::Num(WINDOW as f64))],
        // Each batching policy over the passthrough baseline.
        cells: |_| {
            grid(&TRIO, POLICIES, |s, p| {
                (p != POLICIES[0]).then_some((s, POLICIES[0]))
            })
        },
    },
];

/// Every structure × every load, structure-major, with no extra row
/// fields and at most the one baseline `over` names.
fn grid<const N: usize>(
    structures: &[&'static str],
    loads: [Load; N],
    over: fn(&'static str, Load) -> Option<(&'static str, Load)>,
) -> Vec<Cell> {
    structures
        .iter()
        .flat_map(|&structure| {
            loads.map(|load| Cell {
                structure,
                load,
                extra: Vec::new(),
                over: over(structure, load).into_iter().collect(),
            })
        })
        .collect()
}

/// The shard tier's cells, part by part, each divided in the log by its
/// baseline: sharded by unsharded (point), batched by point (batch),
/// clustered by uniform and by point (leafmerge), skewed by the uniform
/// control (skew). A cell another selected part already measures is not
/// run twice.
fn shard_cells(s: &Sweep) -> Vec<Cell> {
    let cell = |structure, mix: Mix, extra, over: &[Mix]| Cell {
        structure,
        load: Load::Mix(mix),
        extra,
        over: over.iter().map(|&m| (structure, Load::Mix(m))).collect(),
    };
    let mut cells = Vec::new();
    if s.wants("point") {
        let over = |s, load| (s == "sharded").then_some(("chromatic", load));
        cells.extend(grid(&SHARD_STRUCTURES, Mix::ALL.map(Load::Mix), over));
    }
    if s.wants("batch") {
        for structure in SHARD_STRUCTURES {
            for base in BATCH_MIXES {
                for b in BATCHES {
                    // b = 1 of a paper mix is the point part's cell.
                    if b == 1 && Mix::ALL.contains(&base) && s.wants("point") {
                        continue;
                    }
                    let extra = vec![("batch", Json::Num(b.into()))];
                    let over: &[Mix] = if b > 1 { &[base] } else { &[] };
                    cells.push(cell(structure, base.with_batch(b), extra, over));
                }
            }
        }
    }
    if s.wants("leafmerge") {
        let extra = |mix: Mix| {
            vec![
                ("batch", Json::Num(mix.batch.into())),
                ("run", Json::Num(mix.run.into())),
            ]
        };
        for structure in SHARD_STRUCTURES {
            for base in LEAFMERGE_MIXES {
                let uniform = base.with_batch(RUN_BATCH);
                // The point and uniform-b64 baselines of the batch mixes
                // are the batch part's cells.
                if !(BATCH_MIXES.contains(&base) && s.wants("batch")) {
                    cells.push(cell(structure, base, extra(base), &[]));
                    cells.push(cell(structure, uniform, extra(uniform), &[]));
                }
                for r in RUNS {
                    let clustered = uniform.with_run(r);
                    cells.push(cell(
                        structure,
                        clustered,
                        extra(clustered),
                        &[uniform, base],
                    ));
                }
            }
        }
    }
    if s.wants("skew") {
        for structure in TRIO {
            for theta in THETAS {
                let extra = vec![("theta", Json::Num(theta))];
                let over: &[Mix] = if theta > 0.0 { &[SKEW_MIX] } else { &[] };
                cells.push(cell(structure, SKEW_MIX.with_zipf(theta), extra, over));
            }
        }
    }
    cells
}

/// What a cell measured: Mops/s, merged latency, and the row fields only
/// the run can know.
type Outcome = (f64, LatencySummary, Vec<(&'static str, Json)>);

/// The settings one sweep runs under.
struct Sweep {
    /// The selected part (`all` unless `--tier` names one).
    part: String,
    range: u64,
    width: u64,
    cfg: SuiteConfig,
    duration: Duration,
    trials: usize,
}

impl Sweep {
    fn wants(&self, part: &str) -> bool {
        self.part == "all" || self.part == part
    }

    /// Runs one cell at `threads`.
    fn run(&self, structure: &str, load: Load, threads: usize) -> Outcome {
        match load {
            Load::Mix(mix) => {
                let (mops, trials) = measure(
                    structure,
                    &self.cfg,
                    threads,
                    mix,
                    self.range,
                    self.duration,
                    self.trials,
                );
                (mops, workload::latency_summary(&trials), Vec::new())
            }
            Load::Service(max_batch, delay_us) => {
                let policy = FlushPolicy::new(max_batch, Duration::from_micros(delay_us));
                self.run_service(structure, policy, threads)
            }
        }
    }

    /// One service cell: a fresh prefilled map per trial, `clients`
    /// windowed closed-loop clients recording per-op submit→completion
    /// latency; best-trial throughput (`measure` reports the mean),
    /// all-trial merged latency, and the mean flushed batch.
    fn run_service(&self, structure: &str, policy: FlushPolicy, clients: usize) -> Outcome {
        calibrate();
        let mut best_mops = 0.0f64;
        let mut hist = Histogram::new();
        let mut batched_ops = 0u64;
        let mut flushes = 0u64;
        for trial in 0..self.trials {
            let map = make_map(structure, &self.cfg).expect("registered structure");
            prefill(map.as_ref(), self.range, Mix::updates(50, 50), 42);
            let mut svc = BatchedService::start(map, ServiceConfig::new(policy));
            let total_ops = AtomicU64::new(0);
            let started = Instant::now();
            let trial_hist = std::thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|tid| {
                        let svc = &svc;
                        let total_ops = &total_ops;
                        s.spawn(move || {
                            let mut rng =
                                StdRng::seed_from_u64(1000 * trial as u64 + tid as u64 + 7);
                            let mut h = Histogram::new();
                            let mut window = Vec::with_capacity(WINDOW);
                            let mut ops = 0u64;
                            while started.elapsed() < self.duration {
                                for _ in 0..WINDOW {
                                    let k = rng.gen_range(0..self.range);
                                    let op = if rng.gen_range(0..100) < 50 {
                                        Op::Insert(k, ops)
                                    } else {
                                        Op::Remove(k)
                                    };
                                    window.push((now(), svc.submit(op).expect("service open")));
                                }
                                for (start, fut) in window.drain(..) {
                                    fut.wait();
                                    h.record(elapsed_ns(start));
                                }
                                ops += WINDOW as u64;
                            }
                            total_ops.fetch_add(ops, Ordering::Relaxed);
                            h
                        })
                    })
                    .collect();
                let mut merged = Histogram::new();
                for h in handles {
                    merged.merge(&h.join().unwrap());
                }
                merged
            });
            let elapsed = started.elapsed();
            svc.shutdown();
            let stats = svc.stats();
            batched_ops += stats.batched_ops;
            flushes += stats.flushes;
            let mops = total_ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64() / 1e6;
            best_mops = best_mops.max(mops);
            hist.merge(&trial_hist);
        }
        let mean_batch = batched_ops as f64 / flushes.max(1) as f64;
        (
            best_mops,
            LatencySummary::of(&hist),
            vec![("mean_batch", Json::Num(mean_batch))],
        )
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let tier = TIERS
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| usage_error(&format!("unknown tier `{name}`")));
    let (mut label, mut out_path, mut part) = (
        "current".to_string(),
        tier.out.to_string(),
        "all".to_string(),
    );
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--label" => &mut label,
            "--out" => &mut out_path,
            "--tier" => &mut part,
            _ => usage_error(&format!("unknown argument `{flag}`")),
        };
        *slot = args
            .next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
    }
    if part != "all" && !tier.parts.contains(&part.as_str()) {
        usage_error(&format!("tier `{name}` has no part `{part}`"));
    }

    let range = bench::first_key_range();
    let threads = bench::bench_threads(Some(tier.threads));
    let sweep = Sweep {
        part,
        range,
        width: bench::range_width(),
        cfg: SuiteConfig::from_env().for_key_range(range),
        duration: bench::trial_duration(),
        trials: bench::trials(),
    };
    let header = (tier.header)(&sweep);
    eprintln!(
        "# sweep {name}: label={label} range={range} threads={threads:?} {} trial(s) x {:?} {header:?}",
        sweep.trials, sweep.duration
    );

    // fig8 names its one structure in the run, as its artifact always has.
    let structure_per_row = !header.iter().any(|(k, _)| *k == "structure");
    let mut rows = Vec::new();
    let mut measured: Vec<((&str, Load, usize), f64)> = Vec::new();
    for cell in (tier.cells)(&sweep) {
        let mix = cell.load.label();
        for &t in &threads {
            let (mops, latency, extra) = sweep.run(cell.structure, cell.load, t);
            eprintln!(
                "  {} {mix} threads={t}: {mops:.3} Mops/s p50={} p99={}",
                cell.structure,
                bench::fmt_ns(latency.p50_ns),
                bench::fmt_ns(latency.p99_ns)
            );
            for &(structure, load) in &cell.over {
                let base = measured.iter().find(|m| m.0 == (structure, load, t));
                let ratio = base.map_or(f64::NAN, |m| mops / m.1);
                eprintln!("    {ratio:.2}x over {structure} {}", load.label());
            }
            let mut row = Vec::new();
            if structure_per_row {
                row.push(("structure", Json::Str(cell.structure.to_string())));
            }
            row.extend([
                ("mix", Json::Str(mix.clone())),
                ("threads", Json::Num(t as f64)),
                ("mops", Json::Num(mops)),
            ]);
            row.extend(cell.extra.iter().cloned());
            row.extend(extra);
            row.extend(bench::latency_fields(latency));
            // A service cell's flusher thread works alongside its clients.
            let workers = t + usize::from(matches!(cell.load, Load::Service(..)));
            row.extend(bench::provenance(workers));
            rows.push(Json::obj(row));
            measured.push(((cell.structure, cell.load, t), mops));
        }
    }

    let mut run = vec![
        ("label", Json::Str(label.clone())),
        ("range", Json::Num(range as f64)),
        ("duration_secs", Json::Num(sweep.duration.as_secs_f64())),
        ("trials", Json::Num(sweep.trials as f64)),
    ];
    run.extend(header);
    run.push(("results", Json::Arr(rows)));
    let existing = std::fs::read_to_string(&out_path).ok();
    let doc =
        bench::json::merge_labeled_run(existing.as_deref(), tier.schema, &label, Json::obj(run));
    std::fs::write(&out_path, doc.pretty()).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
