//! Memory reclamation for records and descriptors.
//!
//! The PODC'13/PPoPP'14 papers assume garbage collection. We reproduce the
//! same safety guarantees with two cooperating mechanisms:
//!
//! 1. **Epoch-based reclamation (crossbeam-epoch)** for *when* memory may be
//!    freed: anything unlinked from the shared structure is freed only after
//!    every thread pinned at unlink time has unpinned, so concurrent
//!    traversals through removed nodes (correctness property C3 of the
//!    paper) remain safe. Reclamation is thread-exclusive: each thread
//!    runs the retirements it deferred itself, and only a thread that goes
//!    idle or exits hands its unripe ones to another thread's collection.
//! 2. **Install counting of SCX-records** for *whether* a descriptor is
//!    still reachable: `refs(d)` counts exactly the records whose `info`
//!    field currently points at `d`. It is incremented by the helper whose
//!    freezing CAS installed `d` and decremented — epoch-deferred — when a
//!    later freezing CAS replaces `d`, or when the record itself is
//!    disposed. At zero the descriptor returns to the descriptor free list
//!    of the thread that drops it (in [`slab`](crate::slab)).
//!
//! **Why deferred decrements make the count exact.** An increment always
//! happens under a guard pinned when `d` was *observed* installed on some
//! record. The matching decrement (for the replacement that ends that
//! observation window) is scheduled through the epoch machinery, so it
//! executes only after every such pin has ended — i.e. after every pending
//! increment has landed. Hence when a decrement brings `refs` to zero, no
//! pinned thread can still be using a pointer to `d` that it loaded from an
//! `info` field, and the descriptor can be reclaimed on the spot.
//!
//! **Why expected values need no keep-alive references.** A live descriptor
//! `B` names, in its `info_fields`, the descriptors its linked LLXs
//! observed — helpers CAS records' `info` against those words long after
//! the LLXs. The pre-reuse design kept every named descriptor allocated by
//! counting those mentions into `refs`, which chains descriptors (`A`
//! named by `B`, `B` by `C`, ...): the head of the chain always has a live
//! install, so nothing in the chain was ever reclaimed — a leak of one
//! descriptor per committed SCX, and a free list that never received
//! anything back. Reuse replaces the keep-alive with the **incarnation tag**:
//! every published `info` word carries the descriptor's sequence number in
//! its 7 alignment bits, and a checkout bumps the sequence, so a helper's
//! stale expectation from `A`'s previous life mismatches on the tag and
//! the freezing CAS correctly fails. The compare itself touches no memory
//! behind the expected pointer, so it is safe even if `A` was reused. The
//! residual risk is the classic bounded-tag ABA: a spurious match needs the
//! same record to hold the *same descriptor slot* at a *tag-equal
//! incarnation* (128 checkouts later) while `B` is still in progress.
//! Descriptor memory is type-stable (see [`slab`](crate::slab)), so a
//! slot's incarnation count survives every reuse and no other kind of
//! reuse can reach that address. This is the trade Brown's "Reuse, don't
//! Recycle" line of work makes explicit; widen
//! [`SEQ_TAG_BITS`](crate::descriptor::SEQ_TAG_BITS) via the descriptor
//! alignment if a deployment needs more headroom.
//!
//! **Reclaim = reuse.** Reaching `refs == 0` used to free the descriptor;
//! it now returns it to the calling thread's descriptor free list for reuse
//! by that thread's next SCX. Free-list overflow (past
//! [`SLAB_CAP`](crate::slab::SLAB_CAP)) spills to the descriptor arena, and
//! descriptor memory never goes back to the allocator.

use crossbeam_epoch::Guard;

use crate::descriptor::ScxRecord;
use crate::record::Record;

/// Increments the reference count of a descriptor.
///
/// # Safety
/// `d` must point to a live descriptor, and the caller must hold a guard
/// pinned since `d` was observed installed in some record's `info` field.
pub(crate) unsafe fn inc_refs<N: Record>(d: *const ScxRecord<N>) {
    // Relaxed suffices for increments (the classic `Arc::clone` argument):
    // a new reference is always minted from an existing one, so the count
    // cannot be observed at zero while an increment is pending, and no
    // other memory is published by taking a reference.
    let prev = (*d).refs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    debug_assert!(prev < usize::MAX / 2, "descriptor refcount overflow");
}

/// Performs one decrement of `d`'s reference count, returning it to the
/// calling thread's descriptor free list if the count reaches zero.
///
/// # Safety
/// Must be called at most once per previous increment, and only at a time
/// when the reference being released can no longer be used to reach the
/// descriptor (in this crate: from inside an epoch-deferred closure, or for
/// a descriptor that was never published).
pub(crate) unsafe fn dec_refs<N: Record>(d: *const ScxRecord<N>) {
    // Release on the way down (the classic `Arc::drop` argument): our
    // prior uses of the descriptor must not be reordered after the
    // decrement that may hand it to a reuser.
    let prev = (*d).refs.fetch_sub(1, std::sync::atomic::Ordering::Release);
    debug_assert!(prev > 0, "descriptor refcount underflow");
    if prev == 1 {
        // Acquire pairs with every other holder's Release decrement: all
        // their uses happen-before the reuse/free below. An acquire *load*
        // rather than a standalone fence, for two reasons: (1) correctness
        // is identical — every decrement is an RMW, so each earlier Release
        // decrement's release sequence extends to the final value, and an
        // acquiring read of that value synchronizes with all of them (the
        // same reasoning std's Arc uses under ThreadSanitizer); (2) TSan
        // does not model standalone fences, so the fence form makes every
        // descriptor reuse a false-positive data race in the CI TSan job,
        // while the load form is fully visible to it. Cost: one extra
        // already-cached load on the zero-crossing path only.
        let observed = (*d).refs.load(std::sync::atomic::Ordering::Acquire);
        debug_assert_eq!(observed, 0, "racing increment on a dead descriptor");
        // The refcount-based free path is a return-to-free-list path.
        ScxRecord::release(d as *mut ScxRecord<N>);
    }
}

/// Schedules an epoch-deferred decrement of `d`'s reference count.
///
/// # Safety
/// As for [`dec_refs`]; the deferral provides the "no pending increments"
/// timing argument described in the module docs.
pub(crate) unsafe fn defer_dec_refs<N: Record>(d: *const ScxRecord<N>, guard: &Guard) {
    let d = d as usize;
    guard.defer_unchecked(move || dec_refs::<N>(d as *const ScxRecord<N>));
}

/// Frees a record: releases its reference on its last descriptor (if any),
/// drops the record and returns its slot to the thread's record cache. Child pointers are *not* followed — the tree
/// update template guarantees that every removed record is retired exactly
/// once, and fringe children remain in the tree.
///
/// # Safety
/// `ptr` must be a record allocated by
/// [`slab::alloc_owned`](crate::slab::alloc_owned) that is no longer
/// reachable by any thread (typically: called from an epoch-deferred
/// closure scheduled after the record was finalized and unlinked, or
/// during structure drop).
pub unsafe fn dispose_record<N: Record>(ptr: *const N) {
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let info = (*ptr).header().info.load(
        std::sync::atomic::Ordering::SeqCst,
        crossbeam_epoch::unprotected(),
    );
    if !info.is_null() {
        dec_refs(info.as_raw());
    }
    // Release the slot through the thread-local record cache
    // ([`slab`](crate::slab)): record allocate/free pairs dominate the
    // update path, and the slot stays in the record arena.
    std::ptr::drop_in_place(ptr as *mut N);
    crate::slab::free_slot(ptr as *mut u8, std::alloc::Layout::new::<N>());
}

/// Schedules an epoch-deferred [`dispose_record`].
///
/// # Safety
/// `ptr` must have been unlinked from the shared structure (finalized) and
/// must be retired exactly once.
pub unsafe fn defer_dispose_record<N: Record>(ptr: *const N, guard: &Guard) {
    let p = ptr as usize;
    guard.defer_unchecked(move || dispose_record::<N>(p as *const N));
}
