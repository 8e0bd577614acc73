//! Retirements outlive the thread that made them: a thread that exits, or
//! that calls `guard_cache::flush()` and goes idle, hands its unripe
//! retirements to the collector, and other threads' collections run them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use llxscx::{guard_cache, Atomic, Record, RecordHeader};

const K: usize = 100;

/// A record that counts its drops in a per-test counter.
struct Counted {
    header: RecordHeader<Counted>,
    kids: [Atomic<Counted>; 2],
    drops: &'static AtomicUsize,
}

impl Record for Counted {
    const ARITY: usize = 2;
    fn header(&self) -> &RecordHeader<Self> {
        &self.header
    }
    fn child(&self, i: usize) -> &Atomic<Self> {
        &self.kids[i]
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

fn dropped(drops: &AtomicUsize) -> usize {
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    drops.load(Ordering::SeqCst)
}

/// Retires `K` never-linked records, then checks that none has run: the
/// caller holds the epoch back, so none can be ripe yet.
fn retire_k(drops: &'static AtomicUsize) {
    guard_cache::with_guard(|g| {
        for _ in 0..K {
            let r = llxscx::slab::alloc_owned(Counted {
                header: RecordHeader::new(),
                kids: [Atomic::null(), Atomic::null()],
                drops,
            })
            .into_shared(g);
            // SAFETY: `r` was never linked anywhere; this is its only retirement.
            unsafe { llxscx::reclaim::defer_dispose_record(r.as_raw(), g) };
        }
    });
    assert_eq!(
        dropped(drops),
        0,
        "ran before the epoch could advance twice"
    );
}

/// Releases this thread's pin and collects until all `K` retirements ran.
fn collect_until_all_ran(drops: &AtomicUsize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while dropped(drops) < K && Instant::now() < deadline {
        guard_cache::flush();
        std::thread::yield_now();
    }
    assert_eq!(dropped(drops), K, "handed-off retirements were stranded");
}

#[test]
fn retirements_of_an_exited_thread_run_elsewhere() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    // Pin this thread so the worker's retirements cannot ripen before it
    // exits.
    guard_cache::with_guard(|_| ());
    std::thread::spawn(|| retire_k(&DROPS)).join().unwrap();
    collect_until_all_ran(&DROPS);
}

#[test]
fn retirements_of_an_idle_thread_run_elsewhere() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    guard_cache::with_guard(|_| ());
    let (idle_tx, idle_rx) = mpsc::channel();
    let (wake_tx, wake_rx) = mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        retire_k(&DROPS);
        guard_cache::flush();
        assert_eq!(dropped(&DROPS), 0, "ran while this test's thread is pinned");
        idle_tx.send(()).unwrap();
        // Parked, not exited: only the flush can have handed off its bag.
        wake_rx.recv().unwrap();
    });
    idle_rx.recv().unwrap();
    collect_until_all_ran(&DROPS);
    wake_tx.send(()).unwrap();
    worker.join().unwrap();
}
