//! The open-loop service workload: one generator thread sends Poisson
//! arrivals from a fixed seed into `BatchedService` (flush at 64 requests
//! or 100 µs) over a `ShardedMap` of 8 chromatic-tree shards, polling its
//! outstanding responses between sends; the service's flusher is the
//! second busy thread. Every request is timed from when it was due, so a
//! stall also charges the requests queued behind it.
//!
//! The traced run wraps both map layers: `FrontMap` (the map handed to
//! the service) records one `sharded.batch` span per batch call with the
//! keys it carried, and `BenchShard` records one `chromatic.bulk` span
//! per shard call inside it. Requests are matched to the batch call that
//! carried them by FIFO position and checked by key.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nbtree::ChromaticTree;
use service::{BatchedService, Clock, FlushPolicy, Op, RealClock, ResponseFuture, ServiceConfig};
use sharded::{ConcurrentMap, ShardedMap};

use crate::affinity::Cpus;
use crate::check::{Tally, Verdict};
use crate::hist::Hist;
use crate::ladder;
use crate::report::{median, quantile, rss_bytes, Report};
use crate::rng::{prefill_keys, Kind, Mix, Rng};

const KEY_RANGE: u64 = 10_000;
const SHARDS: usize = 8;
const MIX: Mix = Mix {
    insert_pct: 20,
    remove_pct: 10,
};
/// The fixed offered rate. The service sustained 600–750 kops/s
/// (`svc_max_kops`) on a 2-vCPU 2.1 GHz Xeon VM when this was written,
/// but 200 kops/s already overran it whenever the host stalled the vCPUs
/// for a while; at 100 kops/s the queue drains between stalls.
const RATE_PER_S: f64 = 100_000.0;
/// An offered rate above what the service can take (`svc_max_kops`).
const OVERLOAD_PER_S: f64 = 4_000_000.0;
/// The latency limit on p99. The ledger attributes only requests within
/// it; beyond it, a host stall dominates.
const P99_LIMIT_NS: f64 = 1e6;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 31;
/// How long a phase waits for its last responses before counting the
/// rest as failed.
const DRAIN_NS: u64 = 2_000_000_000;
/// Gap between two polls of the oldest response. Polling takes the
/// response slot's lock; polling back to back would starve the flusher
/// that needs it to deliver.
const POLL_NS: u64 = 1_000;

fn policy() -> ServiceConfig {
    ServiceConfig::new(FlushPolicy::new(64, Duration::from_micros(100)))
}

// --- spans ------------------------------------------------------------

#[derive(Clone, Copy)]
struct BatchSpan {
    kind: Kind,
    start: u64,
    end: u64,
    keys_at: usize,
    nkeys: usize,
    shard_spans: (usize, usize),
}

#[derive(Clone, Copy)]
struct ShardSpan {
    kind: Kind,
    start: u64,
    end: u64,
    nkeys: usize,
}

#[derive(Default)]
struct SpanBuf {
    on: bool,
    batches: Vec<BatchSpan>,
    shards: Vec<ShardSpan>,
    keys: Vec<u64>,
}

/// Spans of the map layers. The flusher thread is its only writer; the
/// generator switches it on and takes the spans only while no request is
/// outstanding.
struct SpanLog {
    clock: Arc<RealClock>,
    buf: Mutex<SpanBuf>,
}

impl SpanLog {
    fn set(&self, on: bool) -> SpanBuf {
        let mut b = self.buf.lock().expect("span log poisoned");
        let taken = std::mem::take(&mut *b);
        b.on = on;
        taken
    }
}

struct BenchShard {
    tree: ChromaticTree<u64, u64>,
    log: Option<Arc<SpanLog>>,
}

impl BenchShard {
    fn span<R>(&self, kind: Kind, nkeys: usize, f: impl FnOnce() -> R) -> R {
        let Some(log) = &self.log else { return f() };
        let start = log.clock.now_ns();
        let r = f();
        let end = log.clock.now_ns();
        let mut b = log.buf.lock().expect("span log poisoned");
        if b.on {
            b.shards.push(ShardSpan {
                kind,
                start,
                end,
                nkeys,
            });
        }
        r
    }
}

impl ConcurrentMap for BenchShard {
    fn name(&self) -> &'static str {
        "perfbench-shard"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.tree.insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.tree.remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.tree.get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.tree.range(lo..=hi)
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
    fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
        self.span(Kind::Insert, batch.len(), || self.tree.insert_bulk(batch))
    }
    fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.span(Kind::Remove, keys.len(), || self.tree.remove_bulk(keys))
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        // A get run under weighted guard-cache pins, chunked at the repin
        // cadence, as the suite's own chromatic shard does it.
        self.span(Kind::Get, keys.len(), || {
            let mut out = Vec::with_capacity(keys.len());
            for chunk in keys.chunks(llxscx::guard_cache::REPIN_OPS as usize) {
                llxscx::guard_cache::with_guard_weighted(chunk.len() as u32, |_| {
                    out.extend(chunk.iter().map(|k| self.tree.get(k)));
                });
            }
            out
        })
    }
}

/// The map handed to the service.
struct FrontMap {
    inner: ShardedMap<BenchShard>,
    log: Option<Arc<SpanLog>>,
}

impl FrontMap {
    fn span(
        &self,
        kind: Kind,
        keys: impl Iterator<Item = u64>,
        f: impl FnOnce() -> Vec<Option<u64>>,
    ) -> Vec<Option<u64>> {
        let Some(log) = &self.log else { return f() };
        let first_shard = log.buf.lock().expect("span log poisoned").shards.len();
        let start = log.clock.now_ns();
        let r = f();
        let end = log.clock.now_ns();
        let mut b = log.buf.lock().expect("span log poisoned");
        if b.on {
            let keys_at = b.keys.len();
            b.keys.extend(keys);
            let span = BatchSpan {
                kind,
                start,
                end,
                keys_at,
                nkeys: b.keys.len() - keys_at,
                shard_spans: (first_shard, b.shards.len()),
            };
            b.batches.push(span);
        }
        r
    }
}

impl ConcurrentMap for FrontMap {
    fn name(&self) -> &'static str {
        "perfbench-front"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.inner.insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.inner.remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.inner.get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.inner.range(lo, hi)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
        let keys = batch.iter().map(|&(k, _)| k);
        self.span(Kind::Insert, keys, || self.inner.insert_batch(batch))
    }
    fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let it = keys.iter().copied();
        self.span(Kind::Remove, it, || self.inner.remove_batch(keys))
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let it = keys.iter().copied();
        self.span(Kind::Get, it, || self.inner.get_batch(keys))
    }
}

type Svc = BatchedService<FrontMap>;

fn setup(keys: &[u64], log: Option<Arc<SpanLog>>, verdict: &mut Verdict) -> (Svc, f64) {
    let t0 = Instant::now();
    let inner = ShardedMap::with_span(SHARDS, KEY_RANGE, |_| BenchShard {
        tree: ChromaticTree::new(),
        log: log.clone(),
    });
    let mut tally = Tally::default();
    for &k in keys {
        tally.record(Kind::Insert, k, inner.insert(k, k));
    }
    let svc = BatchedService::start(FrontMap { inner, log }, policy());
    let secs = t0.elapsed().as_secs_f64();
    verdict.absorb(&tally);
    verdict.check_len("prefill", 0, &tally, svc.map().len());
    // This thread becomes the generator and makes no tree calls: release
    // its cached epoch pin, which would otherwise stop all reclamation.
    llxscx::guard_cache::flush();
    (svc, secs)
}

// --- the generator ----------------------------------------------------

/// One request as the traced phase saw it (clock ns).
#[derive(Clone, Copy)]
struct Req {
    kind: Kind,
    key: u64,
    due: u64,
    submit_start: u64,
    submit_end: u64,
    seen: u64,
}

struct Pending {
    kind: Kind,
    key: u64,
    due: u64,
    window: usize,
    at: usize,
    fut: ResponseFuture,
}

/// A phase is judged window by window (split by due time). Virtual CPUs
/// on a shared host are descheduled for 0.1–25 ms at a time (a spinning
/// thread on a 2-vCPU VM lost 11–24% of its time that way, in 25–50
/// gaps per second over 1 ms), and one such stall delays every request
/// due during it, so the percentiles of a whole phase measure the host,
/// and whole runs can land in a slow stretch. Each percentile is therefore
/// taken per window, and the phase reports the windows' 10th percentile
/// of it: what the service's own code delivers in the quiet stretches,
/// which moved by a few percent between runs where the median window
/// moved by up to 2.5×. Stalls still show in the ledger's beyond-limit
/// share and in `loadgen.late_p99_us`.
const WINDOW_NS: u64 = 20_000_000;
/// Which quantile over windows a per-window percentile is summarised by.
const QUIET_WINDOW_Q: f64 = 0.1;

struct PhaseOut {
    tally: Tally,
    refused: u64,
    unanswered: u64,
    /// Sum and count of the latencies within the limit (the ledger's
    /// population; a request beyond it waited out a host stall).
    within: (f64, u64),
    /// Every answered request: its window, op-kind slot and latency.
    samples: Vec<(u32, u8, u64)>,
    windows: usize,
    late: Hist,
    /// The service's completed-request count at each window boundary
    /// (saturation phases only).
    completed: Vec<u64>,
    /// First due time to last response seen.
    wall_ns: u64,
    reqs: Vec<Req>,
}

impl PhaseOut {
    fn new() -> PhaseOut {
        PhaseOut {
            tally: Tally::default(),
            refused: 0,
            unanswered: 0,
            within: (0.0, 0),
            samples: Vec::new(),
            windows: 0,
            late: Hist::new(),
            completed: Vec::new(),
            wall_ns: 0,
            reqs: Vec::new(),
        }
    }

    /// The windows' `q`-quantiles for the given op-kind slots, summarised
    /// by their quiet-window quantile, with the samples they rest on.
    fn window_quantile(&self, q: f64, kinds: &[usize]) -> (f64, u64) {
        let mut per: Vec<Vec<u64>> = vec![Vec::new(); self.windows];
        for &(w, k, lat) in &self.samples {
            if kinds.contains(&(k as usize)) {
                per[w as usize].push(lat);
            }
        }
        let mut n = 0;
        let mut qs: Vec<f64> = Vec::with_capacity(per.len());
        for w in per.iter_mut().filter(|w| !w.is_empty()) {
            w.sort_unstable();
            let rank = ((q * w.len() as f64).ceil() as usize).clamp(1, w.len());
            qs.push(w[rank - 1] as f64);
            n += w.len() as u64;
        }
        (quantile(&mut qs, QUIET_WINDOW_Q), n)
    }

    /// Takes every response that has arrived, oldest first (the service
    /// answers in FIFO order), as seen at `now`.
    fn poll(&mut self, pending: &mut VecDeque<Pending>, now: u64, mode: Mode) {
        while pending.front().is_some_and(|p| p.fut.is_ready()) {
            let p = pending.pop_front().expect("front");
            let got = p.fut.wait();
            let lat = now.saturating_sub(p.due);
            self.tally.record(p.kind, p.key, got);
            if lat as f64 <= P99_LIMIT_NS {
                self.within.0 += lat as f64;
                self.within.1 += 1;
            }
            if mode != Mode::Saturate {
                self.samples
                    .push((p.window as u32, slot(p.kind) as u8, lat));
            }
            if mode == Mode::Trace {
                self.reqs[p.at].seen = now;
            }
        }
    }
}

fn slot(kind: Kind) -> usize {
    match kind {
        Kind::Get => 0,
        Kind::Insert => 1,
        Kind::Remove => 2,
    }
}

fn op(kind: Kind, key: u64) -> Op {
    match kind {
        Kind::Get => Op::Get(key),
        Kind::Insert => Op::Insert(key, key),
        Kind::Remove => Op::Remove(key),
    }
}

/// What a phase keeps besides the op accounting.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Every request's latency.
    Measure,
    /// Latencies plus each request's timestamps, for the span ledger.
    Trace,
    /// Only the service's completion count per window.
    Saturate,
}

/// Offers `rate` requests per second for `secs`, then drains.
fn phase(
    svc: &Svc,
    clock: &RealClock,
    seed: u64,
    stream: u64,
    rate: f64,
    secs: f64,
    mode: Mode,
) -> PhaseOut {
    let record = mode == Mode::Trace;
    let mut out = PhaseOut::new();
    let mut rng = Rng::new(seed, 1_000 + stream);
    let gap = 1e9 / rate;
    let start = clock.now_ns() + 100_000;
    let windows = ((secs * 1e9) as u64 / WINDOW_NS).max(4) as usize;
    out.windows = windows;
    if mode != Mode::Saturate {
        out.samples.reserve((rate * secs * 1.1) as usize);
    }
    let win_ns = WINDOW_NS;
    let end = start + win_ns * windows as u64;
    let mut next_boundary = start + win_ns;
    let mut due = start as f64 + rng.exp(gap);
    let (mut kind, mut key) = MIX.draw(&mut rng, KEY_RANGE);
    let mut pending: VecDeque<Pending> = VecDeque::with_capacity(1 << 14);
    if record {
        out.reqs.reserve((rate * secs * 1.2) as usize);
    }
    let mut now;
    loop {
        now = clock.now_ns();
        out.poll(&mut pending, now, mode);
        let due_ns = due as u64;
        if now >= next_boundary {
            next_boundary += win_ns;
            if mode == Mode::Saturate {
                out.completed.push(svc.stats().completed);
            }
        }
        // A saturating phase stops on time even though its schedule has
        // run far ahead of what the service took.
        if due_ns >= end || (mode == Mode::Saturate && now >= end) {
            break;
        }
        if now < due_ns {
            let until = due_ns.min(now + POLL_NS);
            while clock.now_ns() < until {
                std::hint::spin_loop();
            }
            continue;
        }
        out.late.record(now - due_ns);
        let submit_start = if record { clock.now_ns() } else { now };
        let res = svc.submit(op(kind, key));
        let submit_end = if record { clock.now_ns() } else { now };
        match res {
            Ok(fut) => {
                let at = out.reqs.len();
                if record {
                    out.reqs.push(Req {
                        kind,
                        key,
                        due: due_ns,
                        submit_start,
                        submit_end,
                        seen: 0,
                    });
                }
                pending.push_back(Pending {
                    kind,
                    key,
                    due: due_ns,
                    window: (((due_ns - start) / win_ns) as usize).min(windows - 1),
                    at,
                    fut,
                });
            }
            Err(_) => out.refused += 1,
        }
        due += rng.exp(gap);
        (kind, key) = MIX.draw(&mut rng, KEY_RANGE);
    }
    let give_up = now + DRAIN_NS;
    while !pending.is_empty() && now < give_up {
        while clock.now_ns() < now + POLL_NS {
            std::hint::spin_loop();
        }
        now = clock.now_ns();
        out.poll(&mut pending, now, mode);
    }
    out.unanswered = pending.len() as u64;
    out.wall_ns = now - start;
    out
}

// --- the run ------------------------------------------------------------

/// The end-to-end figures of the fixed-rate phase (percentiles over
/// quiet windows, see `WINDOW_NS`).
struct Summary {
    mops: f64,
    percentiles: Vec<(&'static str, f64, u64)>,
    /// Mean request time over the requests within the latency limit.
    mean_ns: f64,
    /// Share of requests beyond the latency limit.
    beyond_frac: f64,
    p50_ns: f64,
    late_p99_us: f64,
}

impl Summary {
    fn of(p: &PhaseOut) -> Summary {
        let percentiles = [
            ("get_p50_ns", 0.50, &[0][..], 1.0),
            ("get_p99_ns", 0.99, &[0][..], 1.0),
            ("update_p50_ns", 0.50, &[1, 2][..], 1.0),
            ("update_p99_ns", 0.99, &[1, 2][..], 1.0),
            ("svc_p50_us", 0.50, &[0, 1, 2][..], 1e-3),
            ("svc_p99_us", 0.99, &[0, 1, 2][..], 1e-3),
        ]
        .iter()
        .map(|&(name, q, kinds, scale)| {
            let (v, n) = p.window_quantile(q, kinds);
            (name, v * scale, n)
        })
        .collect();
        Summary {
            mops: p.tally.ops as f64 * 1e3 / p.wall_ns as f64,
            percentiles,
            mean_ns: p.within.0 / p.within.1.max(1) as f64,
            beyond_frac: 1.0 - p.within.1 as f64 / p.tally.ops.max(1) as f64,
            p50_ns: p.window_quantile(0.5, &[0, 1, 2]).0,
            late_p99_us: p.late.quantile(0.99) / 1e3,
        }
    }
}

/// Everything the phases of one run did, for the output checks.
#[derive(Default)]
struct Totals {
    tally: Tally,
    refused: u64,
    unanswered: u64,
}

impl Totals {
    fn add(&mut self, p: &PhaseOut) {
        self.tally.merge(&p.tally);
        self.refused += p.refused;
        self.unanswered += p.unanswered;
    }

    fn into_verdict(self, verdict: &mut Verdict) {
        verdict.absorb(&self.tally);
        verdict.attempted += self.refused + self.unanswered;
        if self.refused > 0 {
            verdict.fail(self.refused, format!("{} requests refused", self.refused));
        }
        if self.unanswered > 0 {
            verdict.fail(
                self.unanswered,
                format!("{} requests never answered", self.unanswered),
            );
        }
    }
}

/// The highest rate (kops/s) the service sustains: its completion rate
/// while offered more than it can take, as the median over windows. Any
/// faster and the backlog grows without bound. (A bisection on "p99 within
/// the limit and no growing backlog" gave results spread over 0.17–0.35 of
/// their median across seeds: whether a short step meets the limit near
/// capacity depends on the host's stalls during that step. The saturated
/// rate still moves by about ±10% between runs, so it gets half the run.)
fn capacity(svc: &Svc, clock: &RealClock, seed: u64, secs: f64, totals: &mut Totals) -> f64 {
    let p = phase(svc, clock, seed, 10, OVERLOAD_PER_S, secs, Mode::Saturate);
    totals.add(&p);
    let mut rates: Vec<f64> = p
        .completed
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 * 1e6 / WINDOW_NS as f64)
        .collect();
    median(&mut rates)
}

/// Per-layer figures of the traced phase.
#[derive(Default)]
struct Layers {
    submit: Hist,
    bulk_by_kind: [Hist; 3],
    /// Requests within and beyond the latency limit; the means below are
    /// over those within.
    within: u64,
    beyond: u64,
    /// Means per request, ns.
    req: f64,
    late: f64,
    queue: f64,
    svc_self: f64,
    sharded: f64,
    chromatic: f64,
    /// Per batch call.
    keys_per_call: f64,
    shards_per_call: f64,
    sharded_ns_per_key: f64,
    bulk_ns_per_key: f64,
    busy_ns: u64,
}

/// Matches each request to the batch call that carried it (FIFO position,
/// checked by key and kind) and splits its time into layers: how late the
/// generator sent it, the service's own time (submit, hand-off, delivery
/// and the poll that saw it), its queue wait, and the map call split into
/// `sharded` self time and the shard calls. Returns the number of
/// requests that did not match.
fn layers(reqs: &[Req], buf: &SpanBuf) -> (Layers, u64) {
    let mut l = Layers::default();
    let mut mismatched = 0u64;
    let mut cursor = 0usize;
    let (mut sharded_self_total, mut bulk_total, mut bulk_keys) = (0u64, 0u64, 0usize);
    let (mut keys_total, mut shard_calls) = (0usize, 0usize);
    for b in &buf.batches {
        let call = b.end - b.start;
        let shards = &buf.shards[b.shard_spans.0..b.shard_spans.1];
        let in_shards: u64 = shards.iter().map(|s| s.end - s.start).sum();
        for s in shards {
            l.bulk_by_kind[slot(s.kind)].record(s.end - s.start);
            bulk_keys += s.nkeys;
        }
        bulk_total += in_shards;
        sharded_self_total += call.saturating_sub(in_shards);
        keys_total += b.nkeys;
        shard_calls += shards.len();
        l.busy_ns += call;
        for &key in &buf.keys[b.keys_at..b.keys_at + b.nkeys] {
            let Some(r) = reqs.get(cursor) else {
                mismatched += 1;
                continue;
            };
            cursor += 1;
            if r.key != key || r.kind != b.kind {
                mismatched += 1;
                continue;
            }
            let req = r.seen.saturating_sub(r.due) as f64;
            if req > P99_LIMIT_NS {
                l.beyond += 1;
                continue;
            }
            l.within += 1;
            let late = r.submit_start.saturating_sub(r.due) as f64;
            let queue = b.start.saturating_sub(r.submit_end) as f64;
            l.submit.record(r.submit_end - r.submit_start);
            l.req += req;
            l.late += late;
            l.queue += queue;
            l.svc_self += req - late - queue - call as f64;
            l.sharded += call.saturating_sub(in_shards) as f64;
            l.chromatic += in_shards as f64;
        }
    }
    mismatched += (reqs.len() - cursor.min(reqs.len())) as u64;
    let n = l.within.max(1) as f64;
    for v in [
        &mut l.req,
        &mut l.late,
        &mut l.queue,
        &mut l.svc_self,
        &mut l.sharded,
        &mut l.chromatic,
    ] {
        *v /= n;
    }
    let calls = buf.batches.len().max(1) as f64;
    l.keys_per_call = keys_total as f64 / calls;
    l.shards_per_call = shard_calls as f64 / calls;
    l.sharded_ns_per_key = sharded_self_total as f64 / keys_total.max(1) as f64;
    l.bulk_ns_per_key = bulk_total as f64 / bulk_keys.max(1) as f64;
    (l, mismatched)
}

/// Summed `stats()` counters of every shard.
fn shard_counts(svc: &Svc) -> [u64; 5] {
    let mut c = [0u64; 5];
    for shard in svc.map().inner.shards() {
        let s = shard.tree.stats();
        let row = [
            s.insert_retries() + s.delete_retries(),
            s.total_steps(),
            s.cleanup_passes(),
            s.merged_insert_scxs(),
            s.merged_insert_keys(),
        ];
        for (a, b) in c.iter_mut().zip(row) {
            *a += b;
        }
    }
    c
}

/// Runs `service-open` and fills `report` with its end-to-end (untraced)
/// or per-layer (traced) metrics.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    clock: &Arc<RealClock>,
    cpus: &Cpus,
    report: &mut Report,
    verdict: &mut Verdict,
) {
    let keys = prefill_keys(MIX, KEY_RANGE, seed);
    let log = traced.then(|| {
        Arc::new(SpanLog {
            clock: clock.clone(),
            buf: Mutex::default(),
        })
    });
    let rss0 = rss_bytes();
    // The flusher inherits the affinity of the thread that starts it: it
    // gets the second CPU, the generator (this thread) the first.
    cpus.bind(1);
    let (svc, first_setup) = setup(&keys, log.clone(), verdict);
    cpus.bind(0);
    let mut totals = Totals::default();
    let at_rate = |stream, secs, mode| phase(&svc, clock, seed, stream, RATE_PER_S, secs, mode);
    // The stats() window spans every phase, as `totals` does.
    let counts0 = shard_counts(&svc);
    totals.add(&at_rate(0, seconds * 0.05, Mode::Measure));
    let fixed = at_rate(1, seconds * 0.3, Mode::Measure);
    totals.add(&fixed);
    // Keep the figures, free the samples: they would count in the RSS.
    let fixed = Summary::of(&fixed);
    report.note(format!(
        "nproc={} oversubscribed={} rate={RATE_PER_S}/s live_keys={}",
        cpus.count(),
        cpus.count() < 2,
        svc.map().len()
    ));
    llxscx::guard_cache::flush();

    let traced_out = log.as_ref().map(|log| {
        log.set(true);
        let s0 = svc.stats();
        let p = at_rate(2, seconds * 0.3, Mode::Trace);
        let s1 = svc.stats();
        (p, log.set(false), s0, s1)
    });
    if let Some((p, _, _, _)) = &traced_out {
        totals.add(p);
    }
    let max_kops = (!traced).then(|| capacity(&svc, clock, seed, seconds * 0.5, &mut totals));
    let counts1 = shard_counts(&svc);

    let updates = totals.tally.updates.max(1) as f64;
    let answered = totals.tally;
    totals.into_verdict(verdict);
    let map = svc.map();
    let live = map.len();
    verdict.check_len("sharded map", keys.len(), &answered, live);
    let mut height = 0;
    for (i, shard) in map.inner.shards().enumerate() {
        verdict.check_audit(&format!("shard {i}"), shard.tree.audit().is_valid());
        height = height.max(shard.tree.height());
    }
    let mem = rss_bytes().saturating_sub(rss0) as f64 / live.max(1) as f64;
    drop(svc);

    if !traced {
        let mut setups = vec![first_setup];
        for _ in 1..SETUPS {
            cpus.bind(1);
            let (svc, secs) = setup(&keys, None, verdict);
            setups.push(secs);
            drop(svc);
        }
        cpus.bind(0);
        report.metric("throughput_mops", fixed.mops);
        for &(name, v, n) in &fixed.percentiles {
            report.sampled(name, v, n);
        }
        report.metric("svc_max_kops", max_kops.unwrap_or_default());
        report.metric("setup_s", median(&mut setups));
        report.metric("mem_bytes_per_key", mem);
        return;
    }

    let (tp, buf, s0, s1) = traced_out.expect("traced run");
    let (l, mismatched) = layers(&tp.reqs, &buf);
    if mismatched > 0 {
        verdict.fail(
            mismatched,
            format!("{mismatched} requests not carried in FIFO order by the batch calls"),
        );
    }
    let flushes = (s1.flushes - s0.flushes).max(1) as f64;
    let per_update = |i: usize| (counts1[i] - counts0[i]) as f64 / updates;
    report.metric("service.submit_ns", l.submit.quantile(0.5));
    report.metric("service.queue_wait_us", l.queue / 1e3);
    report.metric("service.self_us", l.svc_self / 1e3);
    report.metric(
        "service.mean_batch",
        (s1.batched_ops - s0.batched_ops) as f64 / flushes,
    );
    report.metric("service.keys_per_call", l.keys_per_call);
    report.metric(
        "service.flusher_busy_frac",
        l.busy_ns as f64 / tp.wall_ns as f64,
    );
    report.metric(
        "service.deadline_flush_frac",
        (s1.deadline_flushes - s0.deadline_flushes) as f64 / flushes,
    );
    report.metric("sharded.self_ns_per_key", l.sharded_ns_per_key);
    report.metric("sharded.shards_per_call", l.shards_per_call);
    report.metric("chromatic.get_ns", l.bulk_by_kind[0].quantile(0.5));
    report.metric("chromatic.insert_ns", l.bulk_by_kind[1].quantile(0.5));
    report.metric("chromatic.remove_ns", l.bulk_by_kind[2].quantile(0.5));
    report.metric("chromatic.bulk_ns_per_key", l.bulk_ns_per_key);
    let merged = counts1[3] - counts0[3];
    report.metric(
        "chromatic.merged_keys_per_scx",
        if merged == 0 {
            0.0
        } else {
            (counts1[4] - counts0[4]) as f64 / merged as f64
        },
    );
    report.metric("chromatic.retries_per_update", per_update(0));
    report.metric("chromatic.rebalance_steps_per_update", per_update(1));
    report.metric("chromatic.cleanup_passes_per_update", per_update(2));
    report.metric("chromatic.height", height as f64);
    let lad = ladder::run(clock, 400);
    verdict.attempted += lad.calls;
    if lad.failed > 0 {
        verdict.fail(
            lad.failed,
            format!("ladder: {} uncontended SCXs failed", lad.failed),
        );
    }
    report.ladder(&lad);

    // Ledger: the untraced mean request time at the fixed rate against
    // the traced request split into its layers, both over the requests
    // within the latency limit (beyond it, a host stall dominates).
    let e2e = fixed.mean_ns;
    report.note(format!(
        "ledger over requests within {} us: untraced mean {:.1} us ({:.2}% beyond), \
         traced {} within, {} beyond",
        P99_LIMIT_NS / 1e3,
        e2e / 1e3,
        100.0 * fixed.beyond_frac,
        l.within,
        l.beyond
    ));
    report.ledger_line("loadgen (sent late)", l.late, e2e);
    report.ledger_line("service (submit, hand-off, poll)", l.svc_self, e2e);
    report.ledger_line("service (queue wait)", l.queue, e2e);
    report.ledger_line("sharded (self)", l.sharded, e2e);
    report.ledger_line("chromatic (shard calls)", l.chromatic, e2e);
    report.ledger_line("residual (untraced - traced)", e2e - l.req, e2e);
    report.metric("ledger.residual_frac", (e2e - l.req) / e2e);
    // At a fixed offered rate throughput cannot move; tracing shows as
    // added median latency instead.
    report.metric(
        "trace.overhead_frac",
        tp.window_quantile(0.5, &[0, 1, 2]).0 / fixed.p50_ns - 1.0,
    );
    report.metric("loadgen.late_p99_us", fixed.late_p99_us);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(kind: Kind, key: u64) -> Req {
        Req {
            kind,
            key,
            due: 0,
            submit_start: 1,
            submit_end: 2,
            seen: 10,
        }
    }

    fn batch(buf: &mut SpanBuf, kind: Kind, keys: &[u64]) {
        let keys_at = buf.keys.len();
        buf.keys.extend_from_slice(keys);
        buf.batches.push(BatchSpan {
            kind,
            start: 3,
            end: 5,
            keys_at,
            nkeys: keys.len(),
            shard_spans: (0, 0),
        });
    }

    #[test]
    fn requests_match_their_batch_calls_in_fifo_order() {
        let reqs = [req(Kind::Get, 1), req(Kind::Get, 2), req(Kind::Insert, 3)];
        let mut buf = SpanBuf::default();
        batch(&mut buf, Kind::Get, &[1, 2]);
        batch(&mut buf, Kind::Insert, &[3]);
        let (l, mismatched) = layers(&reqs, &buf);
        assert_eq!(mismatched, 0);
        assert_eq!(l.req, 10.0);
        assert_eq!(
            l.late + l.queue + l.svc_self + l.sharded + l.chromatic,
            l.req
        );
        assert_eq!(l.keys_per_call, 1.5);
    }

    #[test]
    fn a_request_carried_out_of_order_is_counted() {
        // Negative control: the batch calls carried key 2 before key 1.
        let reqs = [req(Kind::Get, 1), req(Kind::Get, 2)];
        let mut buf = SpanBuf::default();
        batch(&mut buf, Kind::Get, &[2, 1]);
        assert_eq!(layers(&reqs, &buf).1, 2);
    }
}
