//! SCX-records: the descriptors that coordinate multi-record updates.

use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};

use crossbeam_epoch::Shared;

use crate::record::{Record, MAX_V};
use crate::slab;

/// SCX in progress: the records in `V` that point here are frozen.
pub const IN_PROGRESS: u8 = 0;
/// SCX took effect: the update CAS happened and `R` is finalized.
pub const COMMITTED: u8 = 1;
/// SCX failed: records that point here are unfrozen.
pub const ABORTED: u8 = 2;

/// The descriptor used by each invocation of [`scx`](crate::scx).
///
/// A successful freezing CAS installs a pointer to this record into the
/// `info` field of each record in `V` (in order). While `state` is
/// [`IN_PROGRESS`] those records are *frozen*: concurrent LLXs fail (after
/// helping) and concurrent SCXs cannot freeze them. The descriptor contains
/// everything needed for any thread to *help* complete the SCX, which is
/// what makes the construction lock-free.
///
/// # Reuse ("reuse, don't recycle")
///
/// Unlike the PODC'13 presentation (fresh descriptor per SCX, garbage
/// collector assumed), descriptors here are **recycled per thread**: each
/// [`scx`](crate::scx) checks one out of the calling thread's descriptor
/// free list (kept in [`slab`]'s thread-local), overwrites the
/// payload, and the final reference drop returns it to the free list of
/// the thread that drops it. Two mechanisms make reuse safe:
///
/// * `refs` proves quiescence: it counts the records whose `info` field
///   currently points at this descriptor, and reuse happens only at zero,
///   with the final decrement epoch-deferred (see [`reclaim`](crate::reclaim)
///   for why that makes the count exact). Reuse happens exactly where the
///   old code called `free`, so it inherits the same safety argument.
/// * `seq` detects reuse: every checkout bumps the incarnation counter
///   (descriptor memory is type-stable: a descriptor slot is only ever
///   reused as a descriptor, on any thread, so the count survives every
///   reuse; slots are zero-filled when first carved, so it starts at 0), and
///   every *published* pointer to the descriptor (the value installed in
///   `info` fields) carries `seq` in its alignment tag bits
///   (`align(128)` ⇒ 7 bits). A freezing CAS whose expected value names a
///   previous incarnation therefore fails on the tag even though the
///   address matches — no ABA on `info` fields.
///
/// The payload fields are immutable from the first freezing CAS that
/// publishes the descriptor until `refs` drops to zero.
///
/// # Layout
///
/// `align(128)` serves two purposes: a descriptor spans exactly two cache
/// lines with no false sharing against neighbouring allocations on the
/// hot `state`/`refs` words, and the 128-byte alignment frees the low 7
/// pointer bits for the sequence tag. `repr(C)` pins the field order: a
/// free descriptor's first word holds the free-list link, which clobbers
/// only `state` and `all_frozen` (both rewritten at checkout), never
/// `seq`, and every `ScxRecord<N>` has the same layout whatever `N`.
#[repr(C, align(128))]
pub struct ScxRecord<N> {
    /// [`IN_PROGRESS`], [`COMMITTED`] or [`ABORTED`]. Transitions out of
    /// `IN_PROGRESS` happen exactly once per incarnation, via CAS.
    pub(crate) state: AtomicU8,
    /// Set once every record in `V` has been frozen. Read by helpers whose
    /// freezing CAS failed to distinguish "SCX already done" from "must
    /// abort" (paper, Figure 1 of PODC'13).
    pub(crate) all_frozen: AtomicBool,
    /// Reference count for reclamation (not part of the PODC'13 algorithm,
    /// which assumed a garbage collector). Zero means "safe to reuse".
    pub(crate) refs: AtomicUsize,
    /// Incarnation counter, bumped by every checkout. The low
    /// [`SEQ_TAG_BITS`] bits ride along in every published pointer's tag.
    pub(crate) seq: AtomicUsize,
    /// The per-SCX arguments, overwritten at each checkout. Plain (non-
    /// atomic) data: written only between checkout and publication, read
    /// only between publication and the final reference drop.
    pub(crate) payload: UnsafeCell<ScxPayload<N>>,
}

/// Number of low pointer bits available for the sequence tag
/// (`log2(align_of::<ScxRecord>())`).
pub const SEQ_TAG_BITS: u32 = 7;

/// The immutable-while-published arguments of one SCX invocation.
pub(crate) struct ScxPayload<N> {
    /// Number of live entries in `v` / `info_fields`.
    pub len: usize,
    /// The records to freeze, in `V`-sequence order.
    pub v: [*const N; MAX_V],
    /// For each record in `v`, the **tagged** `info` word observed by the
    /// linked LLX — the expected value of the freezing CAS. Keeping the tag
    /// is what arms the sequence check: a stale expectation from a previous
    /// incarnation of some descriptor CASes against the wrong tag and fails.
    pub info_fields: [usize; MAX_V],
    /// Bitmask over `v` selecting `R`, the records to finalize.
    pub finalize_mask: u8,
    /// The record containing the field to modify (must be in `v`).
    pub fld_node: *const N,
    /// Which child of `fld_node` to modify.
    pub fld_idx: usize,
    /// Expected value of the field (read by the linked LLX on `fld_node`).
    pub old: *const N,
    /// New value to store.
    pub new: *const N,
}

// SAFETY: the raw pointers are owned by the epoch-managed heap; descriptors
// are shared across threads only via `Atomic` info fields and all access to
// pointees is mediated by epoch guards. Mutable state is atomic, except the
// `payload` UnsafeCell, whose writes (at checkout, while `refs == 0`
// and unpublished) never overlap reads (only possible between publication
// and the final, epoch-deferred reference drop) — see the reuse argument on
// [`ScxRecord`] and the timing argument in [`reclaim`](crate::reclaim).
unsafe impl<N: Record> Send for ScxRecord<N> {}
// SAFETY: same argument as `Send`.
unsafe impl<N: Record> Sync for ScxRecord<N> {}

impl<N: Record> ScxRecord<N> {
    /// Checks a quiescent descriptor out of the calling thread's free list
    /// (refilled from the descriptor arena on a miss) and bumps its
    /// incarnation counter; the caller must tag every published pointer
    /// with the new value.
    ///
    /// The returned descriptor has `refs == 0` and is exclusively owned by
    /// the caller until a freezing CAS publishes it.
    pub(crate) fn checkout() -> *mut Self {
        let d = slab::take_descriptor(Layout::new::<Self>()) as *mut Self;
        // SAFETY: the descriptor is quiescent and ours alone; `seq` lies
        // past the free-list link, so a recycled slot kept its count and a
        // freshly carved one holds zero.
        let seq = unsafe { &(*d).seq };
        seq.store(
            seq.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
        d
    }

    /// Returns a quiescent descriptor to the calling thread's free list,
    /// whose overflow past [`SLAB_CAP`](crate::slab::SLAB_CAP) spills to
    /// the descriptor arena.
    ///
    /// # Safety
    /// The caller must hold the *last* reference: `refs == 0` and no
    /// thread can reach the descriptor any more.
    pub(crate) unsafe fn release(d: *mut Self) {
        slab::free_descriptor(d as *mut u8, Layout::new::<Self>());
    }

    /// Shared read access to the payload.
    ///
    /// # Safety
    /// The descriptor must be published (observed via an `info` field or
    /// created by the calling thread) and protected by the caller's guard /
    /// reference, so no checkout can be overwriting the payload.
    pub(crate) unsafe fn payload(&self) -> &ScxPayload<N> {
        &*self.payload.get()
    }

    /// Current state. `Relaxed` would be unsound for the protocol; helpers
    /// rely on seeing `all_frozen`/field writes ordered before `COMMITTED`.
    pub(crate) fn load_state(&self) -> u8 {
        // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
        self.state.load(Ordering::SeqCst)
    }

    /// Whether this SCX committed (for testing / introspection).
    pub fn committed(&self) -> bool {
        self.load_state() == COMMITTED
    }

    /// The current incarnation number (for testing / introspection).
    pub fn incarnation(&self) -> usize {
        self.seq.load(Ordering::Relaxed)
    }
}

/// State presented by a (possibly null) `info` pointer: a record that was
/// never frozen behaves as if its last SCX aborted.
#[inline]
pub(crate) fn state_of<N: Record>(info: Shared<'_, ScxRecord<N>>) -> u8 {
    if info.is_null() {
        ABORTED
    } else {
        // SAFETY: non-null info pointers are valid while the caller's guard
        // is pinned (descriptor reuse/frees wait for an epoch-deferred
        // reference drop).
        unsafe { info.deref() }.load_state()
    }
}
