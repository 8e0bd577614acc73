//! The closed-loop tree workloads: worker threads calling the chromatic
//! tree's public `get`/`insert`/`remove` directly (`service` and `sharded`
//! are bypassed). A pass is either untimed (throughput only, no per-op
//! timestamps) or timed (one clock read before and after every call, each
//! call a `chromatic.<op>` span aggregated into per-kind histograms).

use std::sync::Barrier;
use std::time::{Duration, Instant};

use nbtree::ChromaticTree;
use service::{Clock, RealClock};

use crate::affinity::Cpus;
use crate::check::{Tally, Verdict};
use crate::hist::Hist;
use crate::ladder::{self, Ladder};
use crate::report::{median, quantile, rss_bytes, Report};
use crate::rng::{prefill_keys, Kind, Mix, Rng};

pub struct TreeSpec {
    pub key_range: u64,
    pub mix: Mix,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// In timed passes, one extra timed `get` of a random key every this
    /// many ops (0: none). Gives a mix without gets its read latency.
    pub get_probe_every: u32,
}

/// 90% get, 5% insert, 5% remove over [0, 10^6): ~500k keys, far beyond
/// the LLC, so the ~20-level search and its misses dominate.
pub const READ_1M: TreeSpec = TreeSpec {
    key_range: 1_000_000,
    mix: Mix {
        insert_pct: 5,
        remove_pct: 5,
    },
    setups: 3,
    get_probe_every: 0,
};

/// The paper's 50i-50d over [0, 10^4): ~5k keys, cache-resident, so
/// LLX/SCX, the pools, reclamation and rebalancing carry the cost.
pub const UPDATE_10K: TreeSpec = TreeSpec {
    key_range: 10_000,
    mix: Mix {
        insert_pct: 50,
        remove_pct: 50,
    },
    setups: 31,
    get_probe_every: 16,
};

type Tree = ChromaticTree<u64, u64>;

/// One closed-loop pass over all workers.
struct Pass {
    tally: Tally,
    secs: f64,
    by_kind: [Hist; 3],
}

impl Pass {
    fn ops_per_s(&self) -> f64 {
        self.tally.ops as f64 / self.secs
    }

    fn all(&self) -> Hist {
        self.merged(&[0, 1, 2])
    }

    /// The histograms of the given op-kind slots, merged.
    fn merged(&self, kinds: &[usize]) -> Hist {
        let mut h = Hist::new();
        for &k in kinds {
            h.merge(&self.by_kind[k]);
        }
        h
    }
}

fn slot(kind: Kind) -> usize {
    match kind {
        Kind::Get => 0,
        Kind::Insert => 1,
        Kind::Remove => 2,
    }
}

#[inline]
fn apply(tree: &Tree, kind: Kind, key: u64) -> Option<u64> {
    match kind {
        Kind::Get => tree.get(&key),
        Kind::Insert => tree.insert(key, key),
        Kind::Remove => tree.remove(&key),
    }
}

struct Ctx<'a> {
    tree: &'a Tree,
    spec: &'a TreeSpec,
    clock: &'a RealClock,
    cpus: &'a Cpus,
    threads: usize,
    seed: u64,
}

fn worker<const TIMED: bool>(
    cx: &Ctx<'_>,
    stream: u64,
    t: usize,
    secs: f64,
    barrier: &Barrier,
) -> (Tally, f64, [Hist; 3]) {
    const CHUNK: usize = 128;
    let mut rng = Rng::new(cx.seed, stream * 64 + t as u64);
    let mut tally = Tally::default();
    let mut hists = [Hist::new(), Hist::new(), Hist::new()];
    let (mix, range) = (cx.spec.mix, cx.spec.key_range);
    let probe_every = if TIMED { cx.spec.get_probe_every } else { 0 };
    let mut until_probe = probe_every;
    barrier.wait();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    loop {
        for _ in 0..CHUNK {
            let (kind, key) = mix.draw(&mut rng, range);
            let got = if TIMED {
                let t0 = cx.clock.now_ns();
                let got = apply(cx.tree, kind, key);
                hists[slot(kind)].record(cx.clock.now_ns().saturating_sub(t0));
                got
            } else {
                apply(cx.tree, kind, key)
            };
            tally.record(kind, key, got);
            if probe_every > 0 {
                until_probe -= 1;
                if until_probe == 0 {
                    until_probe = probe_every;
                    let key = rng.below(range);
                    let t0 = cx.clock.now_ns();
                    let got = cx.tree.get(&key);
                    hists[0].record(cx.clock.now_ns().saturating_sub(t0));
                    tally.record(Kind::Get, key, got);
                }
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    (tally, start.elapsed().as_secs_f64(), hists)
}

/// One pass of the schedule: its stream, length in seconds, and whether
/// every call is timed.
type Step = (u64, f64, bool);

/// Runs the schedule's passes one after another on the same bound worker
/// threads, all workers starting each pass together.
fn passes(cx: &Ctx<'_>, schedule: &[Step]) -> Vec<Pass> {
    // This thread idles while the workers run: release its cached epoch
    // pin (set-up and checks take one), which would stop all reclamation.
    llxscx::guard_cache::flush();
    let barrier = Barrier::new(cx.threads);
    let outs: Vec<Vec<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cx.threads)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    cx.cpus.bind(t);
                    schedule
                        .iter()
                        .map(|&(stream, secs, timed)| {
                            if timed {
                                worker::<true>(cx, stream, t, secs, barrier)
                            } else {
                                worker::<false>(cx, stream, t, secs, barrier)
                            }
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    (0..schedule.len())
        .map(|i| {
            let mut p = Pass {
                tally: Tally::default(),
                secs: 0.0,
                by_kind: [Hist::new(), Hist::new(), Hist::new()],
            };
            for (tally, secs, hists) in outs.iter().map(|o| &o[i]) {
                p.tally.merge(tally);
                p.secs = p.secs.max(*secs);
                for (a, b) in p.by_kind.iter_mut().zip(hists.iter()) {
                    a.merge(b);
                }
            }
            p
        })
        .collect()
}

/// Builds and prefills a tree, returning it with the seconds it took.
fn setup(keys: &[u64], verdict: &mut Verdict) -> (Tree, f64) {
    let t0 = Instant::now();
    let tree = Tree::new();
    let mut tally = Tally::default();
    for &k in keys {
        tally.record(Kind::Insert, k, tree.insert(k, k));
    }
    let secs = t0.elapsed().as_secs_f64();
    verdict.absorb(&tally);
    verdict.check_len("prefill", 0, &tally, tree.len());
    (tree, secs)
}

/// Counters read from `ChromaticTree::stats()`.
#[derive(Clone, Copy, Default)]
struct Counts {
    retries: u64,
    steps: u64,
    cleanups: u64,
}

fn counts(tree: &Tree) -> Counts {
    let s = tree.stats();
    Counts {
        retries: s.insert_retries() + s.delete_retries(),
        steps: s.total_steps(),
        cleanups: s.cleanup_passes(),
    }
}

/// Untimed and timed passes alternate this many times. A rate is taken
/// per round and summarised by its value in a quiet round, the rounds'
/// 80th percentile: the host's vCPUs run slow for stretches of seconds,
/// and this keeps such a stretch in one or two rounds out of the result.
/// Latency percentiles pool the samples of every timed round: pooling
/// keeps a percentile that sits near a step in the distribution (such as
/// the 1.6% of calls that repin the epoch) from flipping between rounds.
const ROUNDS: usize = 10;
const QUIET_ROUND_Q: f64 = 0.8;

/// The alternating passes of one run.
struct Rounds {
    untimed: Vec<Pass>,
    timed: Vec<Pass>,
}

impl Rounds {
    fn rate(passes: &[Pass]) -> f64 {
        let mut rates: Vec<f64> = passes.iter().map(Pass::ops_per_s).collect();
        quantile(&mut rates, QUIET_ROUND_Q)
    }

    /// All timed rounds in one histogram per kind.
    fn timed_total(&self) -> Pass {
        let mut t = Pass {
            tally: Tally::default(),
            secs: 0.0,
            by_kind: [Hist::new(), Hist::new(), Hist::new()],
        };
        for p in &self.timed {
            t.tally.merge(&p.tally);
            t.secs += p.secs;
            for (a, b) in t.by_kind.iter_mut().zip(p.by_kind.iter()) {
                a.merge(b);
            }
        }
        t
    }
}

/// Runs a tree workload and fills `report` with its end-to-end (untraced)
/// or per-layer (traced) metrics.
#[allow(clippy::too_many_arguments)] // ALLOW: one call site; the run's whole context
pub fn run(
    spec: &TreeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    clock: &RealClock,
    cpus: &Cpus,
    report: &mut Report,
    verdict: &mut Verdict,
) {
    let threads = cpus.count().min(2);
    let keys = prefill_keys(spec.mix, spec.key_range, seed);
    let rss0 = rss_bytes();
    let (tree, first_setup) = setup(&keys, verdict);
    let cx = Ctx {
        tree: &tree,
        spec,
        clock,
        cpus,
        threads,
        seed,
    };
    // A short warm-up pass, then untimed and timed passes alternating.
    let slice = seconds * 0.9 / (2 * ROUNDS) as f64;
    let mut schedule: Vec<Step> = vec![(1, seconds * 0.05, false)];
    for r in 0..ROUNDS as u64 {
        schedule.push((2 + 2 * r, slice, false));
        schedule.push((3 + 2 * r, slice, true));
    }
    let before = counts(&tree);
    let mut done = passes(&cx, &schedule).into_iter();
    let after = counts(&tree);
    let mut total = done.next().expect("warm-up pass").tally;
    let mut rounds = Rounds {
        untimed: Vec::new(),
        timed: Vec::new(),
    };
    while let (Some(u), Some(t)) = (done.next(), done.next()) {
        total.merge(&u.tally);
        total.merge(&t.tally);
        rounds.untimed.push(u);
        rounds.timed.push(t);
    }

    verdict.absorb(&total);
    verdict.check_len("tree", keys.len(), &total, tree.len());
    verdict.check_audit("tree", tree.audit().is_valid());
    let live = tree.len().max(1);
    let mem = rss_bytes().saturating_sub(rss0) as f64 / live as f64;
    let untimed_rate = Rounds::rate(&rounds.untimed);
    let timed_rate = Rounds::rate(&rounds.timed);
    let timed = rounds.timed_total();

    report.note(format!(
        "threads={threads} nproc={} oversubscribed=false live_keys={live} rounds={ROUNDS}",
        cpus.count()
    ));
    if !traced {
        drop(tree);
        let mut setups = vec![first_setup];
        for _ in 1..spec.setups {
            setups.push(setup(&keys, verdict).1);
        }
        report.metric("throughput_mops", untimed_rate / 1e6);
        for (name, q, kinds, scale) in [
            ("get_p50_ns", 0.50, &[0][..], 1.0),
            ("get_p99_ns", 0.99, &[0][..], 1.0),
            ("update_p50_ns", 0.50, &[1, 2][..], 1.0),
            ("update_p99_ns", 0.99, &[1, 2][..], 1.0),
            // Closed loop: each request is due when the previous one
            // returns, so due-to-seen time is the call's latency.
            ("svc_p50_us", 0.50, &[0, 1, 2][..], 1e-3),
            ("svc_p99_us", 0.99, &[0, 1, 2][..], 1e-3),
        ] {
            let h = timed.merged(kinds);
            report.sampled(name, h.quantile(q) * scale, h.count());
        }
        // The only rate a closed loop runs at, measured with per-op
        // timestamps on; it meets the 1 ms p99 limit by a wide margin.
        report.metric("svc_max_kops", timed_rate / 1e3);
        report.metric("setup_s", median(&mut setups));
        report.metric("mem_bytes_per_key", mem);
        return;
    }

    // Traced run: per-layer metrics and the ledger.
    let height = tree.height();
    drop(tree);
    // The stats() window spans every pass, the warm-up included.
    let updates = total.updates.max(1) as f64;
    let per_update = |a: u64, b: u64| (b - a) as f64 / updates;
    let lad = ladder::run(clock, 400);
    verdict.attempted += lad.calls;
    if lad.failed > 0 {
        verdict.fail(
            lad.failed,
            format!("ladder: {} uncontended SCXs failed", lad.failed),
        );
    }
    let retries = per_update(before.retries, after.retries);
    let steps = per_update(before.steps, after.steps);
    report.metric("chromatic.get_ns", timed.by_kind[0].quantile(0.5));
    report.metric("chromatic.insert_ns", timed.by_kind[1].quantile(0.5));
    report.metric("chromatic.remove_ns", timed.by_kind[2].quantile(0.5));
    report.metric("chromatic.retries_per_update", retries);
    report.metric("chromatic.rebalance_steps_per_update", steps);
    report.metric(
        "chromatic.cleanup_passes_per_update",
        per_update(before.cleanups, after.cleanups),
    );
    report.metric("chromatic.height", height as f64);
    report.ladder(&lad);

    // Ledger: the untraced per-op time of one worker against the traced
    // span time, split into a modelled llxscx share and the chromatic
    // tree's own share.
    let e2e_ns = threads as f64 * 1e9 / untimed_rate;
    let span_ns = timed.all().mean();
    let t = &timed.tally;
    let n = t.ops.max(1) as f64;
    let inserts = timed.by_kind[1].count() as f64;
    let hits = t.removed as f64;
    let extra = (retries + steps) * t.updates as f64;
    let model = LedgerModel {
        calls_per_op: (n + retries * t.updates as f64) / n,
        llx_per_op: (2.0 * inserts + 4.0 * hits + 4.0 * extra) / n,
        scx_per_op: (inserts + hits + extra) / n,
        retired_per_op: (inserts + 3.0 * hits + 3.0 * extra) / n,
    };
    let llxscx_ns = model.cost(&lad);
    report.ledger_line("llxscx (modelled)", llxscx_ns, e2e_ns);
    report.ledger_line("chromatic (span - llxscx)", span_ns - llxscx_ns, e2e_ns);
    report.ledger_line("driver (untraced - spans)", e2e_ns - span_ns, e2e_ns);
    report.metric("ledger.residual_frac", (e2e_ns - span_ns) / e2e_ns);
    report.metric("trace.overhead_frac", 1.0 - timed_rate / untimed_rate);
}

/// How many primitive calls one tree operation makes, from the
/// `stats()` counts: an insert is 2 LLX + 1 SCX retiring 1 record, a
/// remove that finds its key is 4 LLX + 1 SCX retiring 3, and each retry
/// or rebalancing step is charged like a remove.
pub struct LedgerModel {
    pub calls_per_op: f64,
    pub scx_per_op: f64,
    pub llx_per_op: f64,
    pub retired_per_op: f64,
}

impl LedgerModel {
    pub fn cost(&self, l: &Ladder) -> f64 {
        self.calls_per_op * l.guard_warm_ns
            + self.llx_per_op * l.llx_ns
            + self.scx_per_op * l.scx_ns
            + self.retired_per_op * l.collect_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_value_from_the_tree_is_counted_as_failed() {
        let tree = Tree::new();
        tree.insert(5, 5);
        tree.insert(6, 7); // negative control: breaks the (k, k) invariant
        let mut t = Tally::default();
        for k in [5, 6, 8] {
            t.record(Kind::Get, k, apply(&tree, Kind::Get, k));
        }
        let mut v = Verdict::default();
        v.absorb(&t);
        assert_eq!((v.attempted, v.failed), (3, 1));
        assert!(!v.correct());
    }
}
