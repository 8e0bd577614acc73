//! Record and descriptor memory: thread-local slot caches over a
//! process-wide, type-stable arena.
//!
//! The tree update template allocates fresh records on every update (PC7)
//! and retires the replaced ones through the epoch collector — a
//! steady-state flow of same-layout allocate/free pairs — and every SCX
//! checks out a descriptor. Both flows are served from memory that never
//! goes back to the global allocator.
//!
//! **Arena.** Each class — record slots or descriptor slots, one class per
//! layout — has one process-wide arena. It takes [`CHUNK_BYTES`]-sized,
//! [`CHUNK_BYTES`]-aligned chunks from the global allocator, asks the
//! kernel once per chunk to back it with a transparent huge page, and
//! carves each chunk into exact-size slots: no per-slot header and no
//! alignment fragment between neighbours, so a tree's nodes pack densely
//! and a search touches few pages. Slots that threads hand back wait on
//! the arena's *spill list*. No slot is ever freed, so an arena holds at
//! most the high-water mark of its live plus cached slots.
//!
//! **Thread-local caches.** The fast path is a per-thread intrusive free
//! list per class: the link pointer lives in the free slot itself, so
//! allocation is a pop and release a push, with no atomics and no lock. A
//! miss refills a batch of 64 slots under the arena's lock, from the spill
//! list first and then by carving. A cache that grows past
//! [`SLAB_CAP`] spills half of itself back, and when a thread exits its
//! whole cache goes back to the spill list, as does any slot released
//! after its thread-locals are gone. The arena's lock guards only these
//! batch moves, never a tree operation's shared state; the global
//! allocator it replaces takes locks of its own on the same paths.
//!
//! Frees land on whichever thread runs the epoch-deferred disposal: the
//! thread that retired the record (each thread runs its own retirements),
//! or, for a thread that went idle or exited first, whichever thread
//! adopts its bag. Slots therefore migrate between threads' caches, and
//! the spill list carries a skewed flow (one thread only frees) from the
//! thread that frees to the threads that allocate.
//!
//! **Type stability.** A slot is only ever reused within its class: a
//! descriptor slot is only ever handed out again as a descriptor, on any
//! thread, so its incarnation counter survives every reuse (see
//! [`ScxRecord`](crate::ScxRecord)). Descriptor slots are zero-filled when
//! carved, so every count starts at zero. No slot reaches
//! `std::alloc::dealloc` or `Box::from_raw`: [`alloc_owned`] hands out a
//! [`Fresh`] pointer, which has no `Drop`, rather than an `Owned`.

use std::alloc::Layout;
use std::cell::RefCell;
use std::ptr::null_mut;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crossbeam_epoch::{Atomic, Guard, Shared};

/// Maximum cached slots per (thread, class). Epoch collection returns
/// retirements in bursts — on an oversubscribed host a burst spans a whole
/// scheduler rotation (tens of thousands of records) — so the cap is sized
/// for bursts, not steady state; past it, half the cache spills back to
/// the arena. 4096 × 128-byte nodes = 512 KiB per thread, the price of
/// keeping the update path off the arena's lock through a worst-case
/// burst.
pub const SLAB_CAP: usize = 4096;

/// Size and alignment of an arena chunk: one x86-64 huge page.
pub const CHUNK_BYTES: usize = 2 << 20;

/// Slots a cache miss takes from the arena under one lock acquisition.
const REFILL_BATCH: usize = 64;

/// What a class's slots hold. Classes of different kinds never share
/// slots, even at equal layouts.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Record,
    Descriptor,
}

/// The process-wide arena of one class.
struct Arena {
    kind: Kind,
    layout: Layout,
    /// Distance between neighbouring slots: the layout's size, padded to
    /// hold at least an aligned link pointer.
    stride: usize,
    state: Mutex<ArenaState>,
}

struct ArenaState {
    /// Head of the intrusive list of slots handed back by threads.
    spill: *mut u8,
    /// Slots on the spill list.
    spilled: usize,
    /// Next uncarved slot of the newest chunk.
    cursor: *mut u8,
    /// Uncarved slots left at `cursor`.
    left: usize,
    /// Chunks taken from the global allocator.
    chunks: usize,
}

// SAFETY: the pointers name free slots and uncarved chunk memory that no
// thread holds; they are only followed under the arena's mutex.
unsafe impl Send for ArenaState {}

/// Every arena, created on a class's first use and never dropped.
static ARENAS: Mutex<Vec<&'static Arena>> = Mutex::new(Vec::new());

/// Locks `m`; nothing panics while holding these locks, so a poisoned one
/// is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The successor of a free slot.
///
/// # Safety
/// `slot` must be a free slot: its first word is the link.
unsafe fn next(slot: *mut u8) -> *mut u8 {
    *(slot as *mut *mut u8)
}

/// Overwrites a free slot's first word with the link to `next`.
///
/// # Safety
/// `slot` must be a free slot that nothing else references.
unsafe fn set_next(slot: *mut u8, next: *mut u8) {
    *(slot as *mut *mut u8) = next;
}

/// Asks the kernel to back `chunk` with a transparent huge page. Advisory:
/// where THP is off or in `never` mode the call fails and the chunk simply
/// stays on base pages.
#[cfg(all(target_os = "linux", not(miri)))]
fn advise_huge_pages(chunk: *mut u8) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `chunk` is a live, page-aligned allocation of CHUNK_BYTES;
    // MADV_HUGEPAGE changes only how the kernel backs it, never its
    // contents or mapping.
    unsafe { madvise(chunk.cast(), CHUNK_BYTES, MADV_HUGEPAGE) };
}

#[cfg(not(all(target_os = "linux", not(miri))))]
fn advise_huge_pages(_chunk: *mut u8) {}

impl Arena {
    /// The arena of `(kind, layout)`, created on first use.
    fn of(kind: Kind, layout: Layout) -> &'static Arena {
        let mut all = lock(&ARENAS);
        if let Some(a) = all.iter().find(|a| a.kind == kind && a.layout == layout) {
            return a;
        }
        let word = std::mem::size_of::<*mut u8>();
        let stride = Layout::from_size_align(layout.size().max(word), layout.align().max(word))
            .expect("a slot layout padded to a word is still a layout")
            .pad_to_align()
            .size();
        assert!(
            stride <= CHUNK_BYTES && layout.align() <= CHUNK_BYTES,
            "slot layout {layout:?} does not fit a {CHUNK_BYTES}-byte chunk"
        );
        let arena = Box::leak(Box::new(Arena {
            kind,
            layout,
            stride,
            state: Mutex::new(ArenaState {
                spill: null_mut(),
                spilled: 0,
                cursor: null_mut(),
                left: 0,
                chunks: 0,
            }),
        }));
        all.push(arena);
        arena
    }

    /// Hands out between one and `max` free slots as a null-terminated
    /// chain `(head, len)`: spilled slots first, then freshly carved ones.
    #[cold]
    #[inline(never)]
    fn refill(&self, max: usize) -> (*mut u8, usize) {
        let mut st = lock(&self.state);
        if !st.spill.is_null() {
            let head = st.spill;
            let mut last = head;
            let mut n = 1;
            // SAFETY: spilled slots are free, and the lock makes the spill
            // list ours; the cut-off chain belongs to the caller.
            unsafe {
                while n < max && !next(last).is_null() {
                    last = next(last);
                    n += 1;
                }
                st.spill = next(last);
                set_next(last, null_mut());
            }
            st.spilled -= n;
            return (head, n);
        }
        if st.left == 0 {
            let chunk_layout = Layout::from_size_align(CHUNK_BYTES, CHUNK_BYTES)
                .expect("CHUNK_BYTES is a power of two");
            // SAFETY: the layout has non-zero size.
            let chunk = unsafe { std::alloc::alloc(chunk_layout) };
            if chunk.is_null() {
                std::alloc::handle_alloc_error(chunk_layout);
            }
            advise_huge_pages(chunk);
            st.cursor = chunk;
            st.left = CHUNK_BYTES / self.stride;
            st.chunks += 1;
        }
        let n = max.min(st.left);
        let head = st.cursor;
        // SAFETY: the `left` uncarved slots at `cursor` lie inside the chunk.
        st.cursor = unsafe { head.add(n * self.stride) };
        st.left -= n;
        drop(st);
        // SAFETY: the `n` carved slots are inside the chunk and reachable
        // from no other thread, so they can be filled and linked unlocked.
        unsafe {
            if self.kind == Kind::Descriptor {
                head.write_bytes(0, n * self.stride);
            }
            for i in 1..n {
                set_next(head.add((i - 1) * self.stride), head.add(i * self.stride));
            }
            set_next(head.add((n - 1) * self.stride), null_mut());
        }
        (head, n)
    }

    /// Puts the chain `head ..= last` of `n` free slots on the spill list.
    ///
    /// # Safety
    /// The chain must be `n` free slots of this arena, linked from `head`
    /// to `last`, that no thread holds any more.
    unsafe fn spill(&self, head: *mut u8, last: *mut u8, n: usize) {
        let mut st = lock(&self.state);
        set_next(last, st.spill);
        st.spill = head;
        st.spilled += n;
    }
}

/// One thread's cache of one class: an intrusive free list.
struct SlabClass {
    kind: Kind,
    layout: Layout,
    arena: &'static Arena,
    head: *mut u8,
    len: usize,
}

impl SlabClass {
    #[inline]
    fn pop(&mut self) -> *mut u8 {
        if self.head.is_null() {
            (self.head, self.len) = self.arena.refill(REFILL_BATCH);
        }
        let slot = self.head;
        // SAFETY: `slot` is a free slot of this cache.
        self.head = unsafe { next(slot) };
        self.len -= 1;
        slot
    }

    /// # Safety
    /// `slot` must be a free slot of this class that nothing references.
    #[inline]
    unsafe fn push(&mut self, slot: *mut u8) {
        set_next(slot, self.head);
        self.head = slot;
        self.len += 1;
        if self.len > SLAB_CAP {
            self.spill_half();
        }
    }

    /// Hands the newest half of a full cache back to the arena.
    #[cold]
    #[inline(never)]
    fn spill_half(&mut self) {
        let n = SLAB_CAP / 2;
        let head = self.head;
        let mut last = head;
        // SAFETY: the cache holds more than `n` free slots, each linked to
        // the next; the first `n` leave the cache together.
        unsafe {
            for _ in 1..n {
                last = next(last);
            }
            self.head = next(last);
            self.arena.spill(head, last, n);
        }
        self.len -= n;
    }
}

impl Drop for SlabClass {
    fn drop(&mut self) {
        // Thread exit: the whole cache goes back to the arena.
        if self.head.is_null() {
            return;
        }
        let mut last = self.head;
        // SAFETY: the cache is a null-terminated chain of `len` free slots
        // that only this (exiting) thread can reach.
        unsafe {
            while !next(last).is_null() {
                last = next(last);
            }
            self.arena.spill(self.head, last, self.len);
        }
    }
}

/// One thread's caches, one per class.
struct Slabs(Vec<SlabClass>);

impl Slabs {
    #[inline]
    fn class(&mut self, kind: Kind, layout: Layout) -> &mut SlabClass {
        let i = match self
            .0
            .iter()
            .position(|c| c.kind == kind && c.layout == layout)
        {
            Some(i) => i,
            None => {
                self.0.push(SlabClass {
                    kind,
                    layout,
                    arena: Arena::of(kind, layout),
                    head: null_mut(),
                    len: 0,
                });
                self.0.len() - 1
            }
        };
        &mut self.0[i]
    }
}

thread_local! {
    static SLABS: RefCell<Slabs> = const { RefCell::new(Slabs(Vec::new())) };
}

/// Takes a free slot of `(kind, layout)` from this thread's cache, or
/// straight from the arena once the thread's locals are torn down.
#[inline]
fn take(kind: Kind, layout: Layout) -> *mut u8 {
    SLABS
        .try_with(|s| s.borrow_mut().class(kind, layout).pop())
        .unwrap_or_else(|_| Arena::of(kind, layout).refill(1).0)
}

/// Returns a slot to this thread's cache, or straight to the arena once
/// the thread's locals are torn down.
///
/// # Safety
/// `ptr` must be a slot of `(kind, layout)` that nothing references.
#[inline]
unsafe fn give(kind: Kind, ptr: *mut u8, layout: Layout) {
    // SAFETY: forwarded from the caller.
    let cached = SLABS.try_with(|s| unsafe { s.borrow_mut().class(kind, layout).push(ptr) });
    if cached.is_err() {
        Arena::of(kind, layout).spill(ptr, ptr, 1);
    }
}

/// Allocates an arena slot of `layout`, reusing a thread-locally cached
/// one when available. The returned memory is uninitialized.
pub fn alloc_slot(layout: Layout) -> *mut u8 {
    take(Kind::Record, layout)
}

/// Releases a slot of `layout` into the thread-local cache.
///
/// # Safety
/// `ptr` must have come from [`alloc_slot`] (or [`alloc_owned`]) with the
/// same `layout` and must not be referenced any more.
pub unsafe fn free_slot(ptr: *mut u8, layout: Layout) {
    give(Kind::Record, ptr, layout);
}

/// Takes a descriptor slot of `layout`. A recycled slot's first word is
/// the stale free-list link and every later byte is as its last release
/// left it; a freshly carved slot is zero past the link.
pub(crate) fn take_descriptor(layout: Layout) -> *mut u8 {
    take(Kind::Descriptor, layout)
}

/// Returns a descriptor slot for [`take_descriptor`].
///
/// # Safety
/// `ptr` must have come from [`take_descriptor`] with the same `layout`
/// and must not be referenced any more.
pub(crate) unsafe fn free_descriptor(ptr: *mut u8, layout: Layout) {
    give(Kind::Descriptor, ptr, layout);
}

/// A record in a fresh arena slot, built by [`alloc_owned`] and not yet
/// published.
///
/// A bare pointer with no `Drop`, so an arena slot never reaches
/// `Box::from_raw` through it. Publish it with
/// [`into_shared`](Fresh::into_shared) or `Atomic::from`; an unpublished
/// one goes back through
/// [`reclaim::dispose_record`](crate::reclaim::dispose_record). Dropping
/// it loses the slot (and leaks its fields) but frees nothing.
#[must_use = "dropping a Fresh record loses its slot"]
pub struct Fresh<T>(*mut T);

impl<T> Fresh<T> {
    /// The record as a pointer whose lifetime is bounded by `guard`.
    pub fn into_shared<'g>(self, _guard: &'g Guard) -> Shared<'g, T> {
        Shared::from(self.0 as *const T)
    }
}

impl<T> From<Fresh<T>> for Atomic<T> {
    fn from(fresh: Fresh<T>) -> Self {
        let a = Atomic::null();
        // RELAXED: `a` is not shared yet; whatever publishes its owner publishes the record.
        a.store(Shared::from(fresh.0 as *const T), Ordering::Relaxed);
        a
    }
}

/// Moves `value` into an arena slot of `T`'s layout.
///
/// This is the record-construction fast path: the tree update template
/// replaces nodes on every update, and the freed slots round-trip through
/// the thread's cache.
pub fn alloc_owned<T>(value: T) -> Fresh<T> {
    let ptr = alloc_slot(Layout::new::<T>()) as *mut T;
    // SAFETY: a free, uninitialized slot of T's layout, ours alone.
    unsafe { ptr.write(value) };
    Fresh(ptr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// Chunks carved so far by the arena of `(kind, layout)`.
    fn chunks(kind: Kind, layout: Layout) -> usize {
        lock(&Arena::of(kind, layout).state).chunks
    }

    fn spilled(kind: Kind, layout: Layout) -> usize {
        lock(&Arena::of(kind, layout).state).spilled
    }

    #[test]
    fn slots_round_trip_through_cache() {
        let layout = Layout::new::<[u64; 16]>();
        let a = alloc_slot(layout);
        // SAFETY: `a` came from `alloc_slot` with the same layout.
        unsafe { free_slot(a, layout) };
        let b = alloc_slot(layout);
        assert_eq!(a, b, "cache must hand back the freed slot");
        // SAFETY: `b` came from `alloc_slot` with the same layout.
        unsafe { free_slot(b, layout) };
    }

    #[test]
    fn distinct_layouts_use_distinct_classes() {
        let l1 = Layout::new::<[u64; 8]>();
        let l2 = Layout::new::<[u64; 16]>();
        let a = alloc_slot(l1);
        // SAFETY: `a` came from `alloc_slot` with layout `l1`.
        unsafe { free_slot(a, l1) };
        let b = alloc_slot(l2);
        assert_ne!(a, b);
        // SAFETY: `b` came from `alloc_slot` with layout `l2`.
        unsafe { free_slot(b, l2) };
    }

    #[test]
    fn carved_slots_are_exact_size_and_aligned() {
        // A layout no other test uses, so the arena is this test's alone.
        let layout = Layout::from_size_align(80, 16).unwrap();
        let slots: Vec<*mut u8> = (0..REFILL_BATCH).map(|_| alloc_slot(layout)).collect();
        for s in &slots {
            assert_eq!(*s as usize % 16, 0);
        }
        let mut addrs: Vec<usize> = slots.iter().map(|&s| s as usize).collect();
        addrs.sort_unstable();
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], 80, "one refill carves neighbouring slots");
        }
        for s in slots {
            // SAFETY: each slot came from `alloc_slot(layout)`, freed once.
            unsafe { free_slot(s, layout) };
        }
    }

    #[test]
    fn spilled_slots_are_reused_by_another_thread() {
        // A layout no other test uses, so the arena is this test's alone.
        let layout = Layout::from_size_align(96, 32).unwrap();
        // Whole refill batches, so every carved slot passes through `slots`.
        let n = SLAB_CAP + REFILL_BATCH;
        let freed: HashSet<usize> = std::thread::spawn(move || {
            let slots: Vec<*mut u8> = (0..n).map(|_| alloc_slot(layout)).collect();
            for &s in &slots {
                // SAFETY: each slot came from `alloc_slot(layout)`, freed once.
                unsafe { free_slot(s, layout) };
            }
            assert_eq!(
                spilled(Kind::Record, layout),
                SLAB_CAP / 2,
                "overflow spills half the cache"
            );
            slots.into_iter().map(|s| s as usize).collect()
            // Thread exit returns the other half.
        })
        .join()
        .unwrap();
        assert_eq!(spilled(Kind::Record, layout), n, "exit returns the cache");
        let carved = chunks(Kind::Record, layout);
        std::thread::spawn(move || {
            for _ in 0..n {
                let s = alloc_slot(layout);
                assert!(freed.contains(&(s as usize)), "a spilled slot is reused");
            }
        })
        .join()
        .unwrap();
        assert_eq!(chunks(Kind::Record, layout), carved, "no chunk carved");
    }

    #[test]
    #[cfg_attr(miri, ignore = "640k slot operations; the paths run above")]
    fn short_lived_threads_leave_the_chunk_count_bounded() {
        // A layout no other test uses, so the arena is this test's alone.
        let layout = Layout::from_size_align(192, 64).unwrap();
        const CHURN: usize = 10_000;
        for _ in 0..64 {
            std::thread::spawn(move || {
                let slots: Vec<*mut u8> = (0..CHURN).map(|_| alloc_slot(layout)).collect();
                for s in slots {
                    // SAFETY: each slot came from `alloc_slot(layout)`, freed once.
                    unsafe { free_slot(s, layout) };
                }
            })
            .join()
            .unwrap();
        }
        // 10k live slots fit one chunk; a partial refill batch may start
        // a second.
        let bound = (CHURN * 192).div_ceil(CHUNK_BYTES) + 1;
        assert!(chunks(Kind::Record, layout) <= bound);
    }

    struct Node {
        header: crate::RecordHeader<Node>,
        kids: [crate::Atomic<Node>; 2],
    }
    impl crate::Record for Node {
        const ARITY: usize = 2;
        fn header(&self) -> &crate::RecordHeader<Self> {
            &self.header
        }
        fn child(&self, i: usize) -> &crate::Atomic<Self> {
            &self.kids[i]
        }
    }
    type Desc = crate::ScxRecord<Node>;

    #[test]
    fn descriptor_released_on_another_thread_is_reused_there() {
        let d = Desc::checkout() as usize;
        // SAFETY: `d` is a live descriptor this test checked out.
        let seq = unsafe { (*(d as *mut Desc)).incarnation() };
        std::thread::spawn(move || {
            // SAFETY: the only reference to `d`, released exactly once.
            unsafe { Desc::release(d as *mut Desc) };
            let again = Desc::checkout();
            assert_eq!(again as usize, d, "the releasing thread reuses the slot");
            // SAFETY: `again` is live until the release below.
            assert_eq!(unsafe { (*again).incarnation() }, seq + 1);
            // SAFETY: checked out above, released exactly once.
            unsafe { Desc::release(again) };
        })
        .join()
        .unwrap();
    }

    #[test]
    fn spilled_descriptor_keeps_its_incarnation_on_another_thread() {
        let layout = Layout::new::<Desc>();
        let n = SLAB_CAP + 1;
        // Every descriptor layout shares one arena with concurrently
        // running tests, so other threads may refill some of these slots.
        let released: HashMap<usize, usize> = std::thread::spawn(move || {
            let descs: Vec<*mut Desc> = (0..n).map(|_| Desc::checkout()).collect();
            descs
                .into_iter()
                .map(|d| {
                    // SAFETY: `d` is live until its release right after.
                    let seq = unsafe { (*d).incarnation() };
                    // SAFETY: each checkout is released exactly once.
                    unsafe { Desc::release(d) };
                    (d as usize, seq)
                })
                .collect()
        })
        .join()
        .unwrap();
        std::thread::spawn(move || {
            let mut reused = 0;
            let descs: Vec<*mut Desc> = (0..n).map(|_| Desc::checkout()).collect();
            for &d in &descs {
                if let Some(&seq) = released.get(&(d as usize)) {
                    reused += 1;
                    // SAFETY: `d` is live until the release below.
                    let now = unsafe { (*d).incarnation() };
                    assert!(now > seq, "incarnation went from {seq} to {now}");
                }
            }
            assert!(reused > 0, "spilled descriptors are refilled elsewhere");
            let records: Vec<*mut u8> = (0..n).map(|_| alloc_slot(layout)).collect();
            for &r in &records {
                assert!(!released.contains_key(&(r as usize)), "never a record slot");
            }
            // SAFETY: each slot is released exactly once, to its own class.
            unsafe {
                for d in descs {
                    Desc::release(d);
                }
                for r in records {
                    free_slot(r, layout);
                }
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn released_descriptor_is_not_handed_out_as_a_record_slot() {
        let layout = Layout::new::<Desc>();
        let d = Desc::checkout();
        // SAFETY: `d` is live until the release below.
        let seq = unsafe { (*d).incarnation() };
        // SAFETY: checked out above, released exactly once.
        unsafe { Desc::release(d) };
        // A record of the descriptor's layout must miss the descriptor
        // class: writing a record over the slot would clobber `seq`.
        let r = alloc_slot(layout);
        assert_ne!(r, d as *mut u8);
        let again = Desc::checkout();
        assert_eq!(again, d);
        // SAFETY: `again` is live until the release below.
        assert_eq!(unsafe { (*again).incarnation() }, seq + 1);
        // SAFETY: each slot is released exactly once, to its own class.
        unsafe {
            free_slot(r, layout);
            Desc::release(again);
        }
    }
}
