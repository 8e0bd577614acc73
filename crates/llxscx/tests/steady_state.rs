//! Steady-state updates allocate nothing: once warm, a single thread's
//! LLX → SCX → retire → collect cycles recycle every descriptor and record
//! through its own free lists, and never make their arenas carve a chunk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use llxscx::slab::{Fresh, CHUNK_BYTES};
use llxscx::{guard_cache, llx, scx, Atomic, Record, RecordHeader, ScxArgs, ScxRecord, Shared};

#[repr(align(64))]
struct Node {
    header: RecordHeader<Node>,
    kids: [Atomic<Node>; 2],
}

impl Record for Node {
    const ARITY: usize = 2;
    fn header(&self) -> &RecordHeader<Self> {
        &self.header
    }
    fn child(&self, i: usize) -> &Atomic<Self> {
        &self.kids[i]
    }
}

const DESCRIPTOR: Layout = Layout::new::<ScxRecord<Node>>();
const RECORD: Layout = Layout::new::<Node>();

/// Allocations with the descriptor's or the record's layout.
static WATCHED: AtomicUsize = AtomicUsize::new(0);
/// Allocations of an arena chunk's size or more.
static CHUNKS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: forwards every call to `System` unchanged; only counts.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: same contract as `System::alloc`, which does the work.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout == DESCRIPTOR || layout == RECORD {
            // SEQCST: test-only; SC keeps the interleaving argument trivial.
            WATCHED.fetch_add(1, Ordering::SeqCst);
        }
        if layout.size() >= CHUNK_BYTES {
            // SEQCST: test-only; SC keeps the interleaving argument trivial.
            CHUNKS.fetch_add(1, Ordering::SeqCst);
        }
        System.alloc(layout)
    }
    // SAFETY: same contract as `System::dealloc`, which does the work.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn node() -> Fresh<Node> {
    llxscx::slab::alloc_owned(Node {
        header: RecordHeader::new(),
        kids: [Atomic::null(), Atomic::null()],
    })
}

/// LLX the root, SCX a fresh right child in, retire the one it replaced,
/// then collect.
fn cycle(root: usize) {
    guard_cache::with_guard(|g| {
        let h = llx(Shared::from(root as *const Node), g).unwrap();
        let old = h.right();
        let args = ScxArgs {
            v: &[h],
            finalize: 0,
            fld_record: 0,
            fld_idx: 1,
            new: node().into_shared(g),
        };
        assert!(scx(&args, g));
        if !old.is_null() {
            // SAFETY: the committed SCX unlinked `old`; only this thread
            // retires it.
            unsafe { llxscx::reclaim::defer_dispose_record(old.as_raw(), g) };
        }
    });
    llxscx::epoch::flush_and_collect();
}

#[test]
fn warm_updates_allocate_no_descriptor_record_or_chunk() {
    let root = guard_cache::with_guard(|g| node().into_shared(g).as_raw() as usize);
    for _ in 0..1000 {
        cycle(root);
    }
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    let before = WATCHED.load(Ordering::SeqCst);
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    let chunks_before = CHUNKS.load(Ordering::SeqCst);
    // More cycles than a chunk has slots of the smaller layout, so a cycle
    // that leaked a record or a descriptor would have to carve a chunk.
    for _ in 0..CHUNK_BYTES / RECORD.size() + 1 {
        cycle(root);
    }
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    let made = WATCHED.load(Ordering::SeqCst) - before;
    assert_eq!(
        made, 0,
        "steady-state cycles allocated {made} descriptors/records"
    );
    // SEQCST: test-only; SC keeps the interleaving argument trivial.
    let chunks = CHUNKS.load(Ordering::SeqCst) - chunks_before;
    assert_eq!(chunks, 0, "steady-state cycles carved {chunks} chunks");
}
