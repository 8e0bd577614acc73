//! The primitive ladder: one thread, no contention, timing each public
//! `llxscx` entry point on a two-child record defined here. The rungs are
//! the unit costs the ledger multiplies by the tree's `stats()` counts.

use std::hint::black_box;

use llxscx::{guard_cache, llx, scx, vlx, Atomic, Llx, Record, RecordHeader, ScxArgs, Shared};
use service::{Clock, RealClock};

use crate::report::median;

/// A two-child data-record.
struct Cell {
    header: RecordHeader<Cell>,
    kids: [Atomic<Cell>; 2],
}

impl Cell {
    fn fresh() -> Cell {
        Cell {
            header: RecordHeader::new(),
            kids: [Atomic::null(), Atomic::null()],
        }
    }
}

impl Record for Cell {
    const ARITY: usize = 2;
    fn header(&self) -> &RecordHeader<Self> {
        &self.header
    }
    fn child(&self, i: usize) -> &Atomic<Self> {
        &self.kids[i]
    }
}

/// Median cost per call of each rung, in ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ladder {
    pub llx_ns: f64,
    pub vlx_ns: f64,
    /// One SCX over `V = [root, child]` finalizing the child: pool
    /// checkout, slab allocation of the new child, the SCX itself and the
    /// deferred retire of the old child.
    pub scx_ns: f64,
    /// `with_guard` while this thread's guard is cached.
    pub guard_warm_ns: f64,
    /// `with_guard` right after `guard_cache::flush()` (a fresh pin).
    pub guard_cold_ns: f64,
    /// `epoch::flush_and_collect`, per record retired since the last one.
    pub collect_ns: f64,
    /// Failed SCXs (there is no contention, so any is a fault).
    pub failed: u64,
    /// Primitive calls made.
    pub calls: u64,
}

/// Runs `rounds` rounds of every rung and reports medians.
pub fn run(clock: &RealClock, rounds: usize) -> Ladder {
    const READS: u64 = 256;
    const SCXS: u64 = 32;
    const WARM: u64 = 48;

    // The root is never finalized; its child is replaced on every SCX.
    // Both outlive the ladder on purpose: the process exits right after,
    // and freeing them would need the reclamation protocol's unsafe path.
    let root: *const Cell = guard_cache::with_guard(|g| {
        let root = llxscx::slab::alloc_owned(Cell {
            header: RecordHeader::new(),
            kids: [
                Atomic::from(llxscx::slab::alloc_owned(Cell::fresh())),
                Atomic::null(),
            ],
        });
        root.into_shared(g).as_raw()
    });
    let timer_ns = {
        let mut v: Vec<f64> = (0..1000)
            .map(|_| {
                let t0 = clock.now_ns();
                (clock.now_ns() - t0) as f64
            })
            .collect();
        median(&mut v)
    };

    let mut out = Ladder::default();
    let (mut llx_v, mut vlx_v, mut scx_v) = (Vec::new(), Vec::new(), Vec::new());
    let (mut warm_v, mut cold_v, mut collect_v) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rounds {
        // LLX of a quiescent record.
        let ns = guard_cache::with_guard(|g| {
            let r = Shared::from(root);
            let t0 = clock.now_ns();
            for _ in 0..READS {
                black_box(matches!(llx(black_box(r), g), Llx::Snapshot(_)));
            }
            clock.now_ns() - t0
        });
        llx_v.push(ns as f64 / READS as f64);

        // VLX over a linked two-record snapshot.
        let ns = guard_cache::with_guard(|g| {
            let hr = llx(Shared::from(root), g).unwrap();
            let hc = llx(hr.left(), g).unwrap();
            let v = [hr, hc];
            let t0 = clock.now_ns();
            for _ in 0..READS {
                black_box(vlx(black_box(&v), g));
            }
            clock.now_ns() - t0
        });
        vlx_v.push(ns as f64 / READS as f64);

        // SCX replacing the child, under one pin; the two LLXs it links to
        // are timed with it and subtracted below.
        let (ns, failed) = guard_cache::with_guard(|g| {
            let mut failed = 0;
            let t0 = clock.now_ns();
            for _ in 0..SCXS {
                let hr = llx(Shared::from(root), g).unwrap();
                let hc = llx(hr.left(), g).unwrap();
                let new = llxscx::slab::alloc_owned(Cell::fresh()).into_shared(g);
                let args = ScxArgs {
                    v: &[hr, hc],
                    finalize: 0b10,
                    fld_record: 0,
                    fld_idx: 0,
                    new,
                };
                failed += u64::from(!scx(&args, g));
            }
            (clock.now_ns() - t0, failed)
        });
        out.failed += failed;
        scx_v.push(ns as f64 / SCXS as f64);

        // Releasing the pin collects what earlier rounds retired: the
        // SCXS children (and their descriptors) of one round per pass.
        let t0 = clock.now_ns();
        guard_cache::flush();
        collect_v.push((clock.now_ns() - t0) as f64 / SCXS as f64);

        // A cold entry (fresh pin), then warm re-entries on that guard,
        // staying inside one repin interval.
        let t0 = clock.now_ns();
        guard_cache::with_guard(|g| {
            black_box(g);
        });
        cold_v.push(((clock.now_ns() - t0) as f64 - timer_ns).max(0.0));
        let t0 = clock.now_ns();
        for _ in 0..WARM {
            guard_cache::with_guard(|g| {
                black_box(g);
            });
        }
        warm_v.push((clock.now_ns() - t0) as f64 / WARM as f64);
        guard_cache::flush();
        out.calls += 2 * READS + 3 * SCXS + WARM + 1;
    }
    out.llx_ns = median(&mut llx_v);
    out.vlx_ns = median(&mut vlx_v);
    out.scx_ns = (median(&mut scx_v) - 2.0 * out.llx_ns).max(0.0);
    out.guard_warm_ns = median(&mut warm_v);
    out.guard_cold_ns = median(&mut cold_v);
    out.collect_ns = median(&mut collect_v);
    out
}
