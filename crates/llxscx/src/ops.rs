//! The LLX, SCX and VLX operations.

use std::sync::atomic::Ordering;

use crossbeam_epoch::{Guard, Pointer, Shared};

use crate::descriptor::{state_of, ScxPayload, ScxRecord, ABORTED, COMMITTED, IN_PROGRESS};
use crate::reclaim::{defer_dec_refs, defer_dispose_record, inc_refs};
use crate::record::{load_info, quiescent, Record, MAX_ARITY, MAX_V};

/// Result of an [`llx`].
pub enum Llx<'g, N: Record> {
    /// The record was quiescent; its mutable fields were snapshotted.
    Snapshot(LlxHandle<'g, N>),
    /// A concurrent SCX interfered; the caller should retry its update.
    Fail,
    /// The record has been finalized (removed from the structure).
    Finalized,
}

impl<'g, N: Record> Llx<'g, N> {
    /// Unwraps the snapshot, panicking on `Fail`/`Finalized`. Test helper.
    pub fn unwrap(self) -> LlxHandle<'g, N> {
        match self {
            Llx::Snapshot(h) => h,
            Llx::Fail => panic!("LLX failed"),
            Llx::Finalized => panic!("LLX returned Finalized"),
        }
    }

    /// `Some(handle)` for a snapshot, `None` otherwise.
    pub fn ok(self) -> Option<LlxHandle<'g, N>> {
        match self {
            Llx::Snapshot(h) => Some(h),
            _ => None,
        }
    }
}

/// A successful LLX: the record, the descriptor observed in its `info`
/// field, and a snapshot of its mutable fields.
///
/// The handle borrows the epoch [`Guard`] it was created under, which
/// enforces the paper's *linking* discipline: an SCX/VLX can only consume
/// handles produced under the same pin, so the observed `info` values are
/// still protected when the freezing CASes run.
pub struct LlxHandle<'g, N: Record> {
    /// The record that was snapshotted.
    pub node: Shared<'g, N>,
    pub(crate) info: Shared<'g, ScxRecord<N>>,
    pub(crate) children: [Shared<'g, N>; MAX_ARITY],
}

impl<'g, N: Record> Clone for LlxHandle<'g, N> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'g, N: Record> Copy for LlxHandle<'g, N> {}

impl<'g, N: Record> LlxHandle<'g, N> {
    /// The snapshotted value of mutable field `i`.
    pub fn child(&self, i: usize) -> Shared<'g, N> {
        debug_assert!(i < N::ARITY);
        self.children[i]
    }

    /// Convenience for binary trees: snapshot of field 0.
    pub fn left(&self) -> Shared<'g, N> {
        self.children[0]
    }

    /// Convenience for binary trees: snapshot of field 1.
    pub fn right(&self) -> Shared<'g, N> {
        self.children[1]
    }

    /// The snapshotted record, dereferenced.
    pub fn node_ref(&self) -> &'g N {
        // SAFETY: a snapshot is only produced for a record that was in the
        // structure at the LLX's linearization point; it stays allocated for
        // the guard's lifetime (frees are epoch-deferred).
        unsafe { self.node.deref() }
    }
}

/// Load-link extended (PODC'13, Figure 1).
///
/// Attempts to snapshot the mutable fields of `node`. Helps any in-progress
/// SCX it encounters before reporting `Fail`/`Finalized`, which is what
/// makes the ensemble lock-free.
pub fn llx<'g, N: Record>(node: Shared<'g, N>, guard: &'g Guard) -> Llx<'g, N> {
    // SAFETY: caller obtained `node` from the structure under `guard`.
    let n = unsafe { node.deref() };
    let header = n.header();
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let marked1 = header.marked.load(Ordering::SeqCst);
    let (rinfo, state) = load_info(n, guard);
    // Second `marked` read, *after* the info load (PODC'13 Fig. 1 lines
    // 2–5). The quiescence test must use this one: finalization sets
    // `marked` before the descriptor's state becomes `Committed`, so a
    // terminal state combined with a `marked` read that *follows* it
    // proves the record was not in that SCX's removed set. Testing the
    // pre-info read instead admits a torn interleaving — `marked` read
    // false, the SCX commits (marking the record), `info` then reads the
    // terminal descriptor — that snapshots an already-finalized record.
    // A later SCX linked to such a snapshot freezes and mutates a record
    // that is no longer in the structure: its update lands in a detached
    // subtree and the records it finalizes there may still be reachable
    // through the replacing copy, wedging every future LLX on them.
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let marked2 = header.marked.load(Ordering::SeqCst);

    if quiescent(state, marked2) {
        // Read the mutable fields, then confirm `info` is unchanged: any SCX
        // that modifies a field must first freeze the record by installing a
        // fresh descriptor, so an unchanged `info` certifies the snapshot.
        let mut children = [Shared::null(); MAX_ARITY];
        for (i, slot) in children.iter_mut().enumerate().take(N::ARITY) {
            // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
            *slot = n.child(i).load(Ordering::SeqCst, guard);
        }
        // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
        if header.info.load(Ordering::SeqCst, guard) == rinfo {
            return Llx::Snapshot(LlxHandle {
                node,
                info: rinfo,
                children,
            });
        }
    }

    // The record is frozen or finalized. Re-read the descriptor's state (it
    // may have advanced) and help if it is still in progress.
    let state_now = state_of(rinfo);
    let done = state_now == COMMITTED
        || (state_now == IN_PROGRESS && {
            // SAFETY: rinfo non-null (IN_PROGRESS), protected by `guard`.
            unsafe { help(rinfo, guard) }
        });
    if done && marked1 {
        return Llx::Finalized;
    }
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let cur = header.info.load(Ordering::SeqCst, guard);
    if state_of(cur) == IN_PROGRESS {
        // SAFETY: non-null (IN_PROGRESS), protected by `guard`.
        unsafe { help(cur, guard) };
    }
    Llx::Fail
}

/// Arguments for [`scx`], mirroring `SCX(V, R, fld, new)` from the paper.
pub struct ScxArgs<'a, 'g, N: Record> {
    /// The `V` sequence: handles from linked LLXs, ordered per template
    /// postcondition PC8 (a fixed tree-traversal order).
    pub v: &'a [LlxHandle<'g, N>],
    /// Bitmask over `v` selecting `R`, the records to finalize (PC2).
    pub finalize: u8,
    /// Index into `v` of the record whose field is modified (PC3).
    pub fld_record: usize,
    /// Which mutable field of that record is modified.
    pub fld_idx: usize,
    /// The new value. Must never have been stored in the field before
    /// (constraint 1; use a freshly allocated record — PC7).
    pub new: Shared<'g, N>,
}

/// Store-conditional extended (PODC'13, Figure 1).
///
/// Returns `true` if the SCX took effect: atomically, each record in `V` was
/// unchanged since its linked LLX, the designated field was updated to
/// `new`, and every record in `R` was finalized (and retired through the
/// epoch collector). Returns `false` if some record changed first.
pub fn scx<'g, N: Record>(args: &ScxArgs<'_, 'g, N>, guard: &'g Guard) -> bool {
    let len = args.v.len();
    assert!(
        len > 0 && len <= MAX_V,
        "SCX V-sequence length {len} out of range"
    );
    assert!(args.fld_record < len, "fld_record out of range");
    assert!(args.fld_idx < N::ARITY, "fld_idx out of range");
    debug_assert!(
        (args.finalize as usize) < (1usize << len),
        "finalize mask selects records outside V"
    );

    let mut v = [std::ptr::null::<N>(); MAX_V];
    // Expected `info` words *including their sequence tags*: a stale
    // expectation naming a reused descriptor carries the old incarnation's
    // tag and can never win a freezing CAS against the new one.
    let mut info_fields = [0usize; MAX_V];
    for (i, h) in args.v.iter().enumerate() {
        v[i] = h.node.as_raw();
        info_fields[i] = h.info.into_usize();
        debug_assert!(!v[i].is_null(), "V contains a null record");
    }
    let old = args.v[args.fld_record].children[args.fld_idx];

    // Check a descriptor out of the calling thread's free list instead of
    // allocating (the dominant update-path cost once the protocol is
    // cheap). We own it exclusively until the first freezing CAS: refs is
    // zero and the new incarnation has never been published.
    let desc_ptr = ScxRecord::<N>::checkout();
    // SAFETY: exclusive access (see above); payload writes cannot race.
    let desc_s: Shared<'g, ScxRecord<N>> = unsafe {
        let d = &*desc_ptr;
        debug_assert_eq!(d.refs.load(Ordering::Relaxed), 0, "reused live descriptor");
        // Relaxed suffices: the freezing CAS that publishes the descriptor
        // is SeqCst, so helpers that discover it observe these writes.
        d.state.store(IN_PROGRESS, Ordering::Relaxed);
        d.all_frozen.store(false, Ordering::Relaxed);
        *d.payload.get() = ScxPayload {
            len,
            v,
            info_fields,
            finalize_mask: args.finalize,
            fld_node: v[args.fld_record],
            fld_idx: args.fld_idx,
            old: old.as_raw(),
            new: args.new.as_raw(),
        };
        // Publish under the current incarnation's tag (`with_tag` keeps the
        // low bits the 128-byte alignment frees up).
        Shared::from(desc_ptr as *const ScxRecord<N>).with_tag(d.seq.load(Ordering::Relaxed))
    };

    // Note what is *not* here: the expected descriptors in `info_fields`
    // are NOT kept alive by a reference count. The pre-reuse design pinned
    // every expected descriptor for as long as this one lived, which chains
    // descriptors together (A is named by B, B by C, ...) and in steady
    // state leaks one descriptor per committed SCX — the head of the chain
    // always has a live install, so the chain never collapses. With reuse
    // the expectation is protected differently: a freezing CAS compares the
    // whole tagged word, and reusing a descriptor bumps its incarnation
    // tag, so a stale expectation fails on the tag instead of relying on
    // the expected descriptor still being allocated (see `reclaim` docs).

    // SAFETY: desc published by this thread, protected by `guard`.
    let ok = unsafe { help(desc_s, guard) };
    if !ok {
        // If the descriptor was never installed anywhere, no other thread
        // ever saw it (helpers only discover descriptors via info fields),
        // so the initiator may return it to its free list directly.
        // SAFETY: refs counts installs; during our pin any install's
        // deferred decrement cannot yet have run, so refs == 0 certifies
        // "never installed".
        unsafe {
            let d = &*desc_ptr;
            // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
            if d.refs.load(Ordering::SeqCst) == 0 {
                ScxRecord::release(desc_ptr);
            }
        }
    }
    ok
}

/// Validate extended: `true` iff no record in `handles` has changed since
/// its linked LLX. Helps conflicting in-progress SCXs before failing.
///
/// This is the read-side counterpart of [`scx`]: it establishes that the
/// whole set of snapshots was simultaneously valid at one instant (the last
/// `info` load of the loop below) *without freezing anything*, which is what
/// makes multi-node reads — successor/predecessor walks and whole-subtree
/// range scans — linearizable at zero cost to writers.
///
/// Incarnation awareness: the comparison is on the whole tagged word, not
/// the descriptor address. A descriptor that was recycled between the
/// LLX and this VLX comes back with a bumped incarnation tag (see
/// [`ScxRecord`]), so address reuse alone can never make a stale snapshot
/// validate — the same sequence-number argument that protects the freezing
/// CAS in the SCX helper.
///
/// # Example
///
/// An atomic two-record read: LLX both records, then one VLX certifies
/// that the pair of snapshots was simultaneously valid. An SCX on either
/// record in between invalidates the set as a whole.
///
/// ```
/// use llxscx::slab::{alloc_owned, Fresh};
/// use llxscx::{llx, scx, vlx, pin, Atomic, Record, RecordHeader, ScxArgs};
///
/// struct N { header: RecordHeader<N>, kids: [Atomic<N>; 2] }
/// impl Record for N {
///     const ARITY: usize = 2;
///     fn header(&self) -> &RecordHeader<Self> { &self.header }
///     fn child(&self, i: usize) -> &Atomic<Self> { &self.kids[i] }
/// }
/// fn node() -> Fresh<N> {
///     alloc_owned(N { header: RecordHeader::new(), kids: [Atomic::null(), Atomic::null()] })
/// }
///
/// let guard = &pin();
/// let a = node().into_shared(guard);
/// let b = node().into_shared(guard);
/// let (ha, hb) = (llx(a, guard).unwrap(), llx(b, guard).unwrap());
/// // Nothing changed since the LLXs: the snapshot pair is atomic.
/// assert!(vlx(&[ha, hb], guard));
///
/// // A committed SCX on `a` fails any V-sequence containing `ha` ...
/// let fresh = node().into_shared(guard);
/// assert!(scx(&ScxArgs { v: &[ha], finalize: 0, fld_record: 0, fld_idx: 0, new: fresh }, guard));
/// assert!(!vlx(&[ha, hb], guard));
/// // ... while `b`'s untouched snapshot alone still validates.
/// assert!(vlx(&[hb], guard));
/// # unsafe {
/// #     llxscx::reclaim::dispose_record(fresh.as_raw());
/// #     llxscx::reclaim::dispose_record(b.as_raw());
/// #     llxscx::reclaim::dispose_record(a.as_raw());
/// # }
/// ```
pub fn vlx<'g, N: Record>(handles: &[LlxHandle<'g, N>], guard: &'g Guard) -> bool {
    for h in handles {
        // SAFETY: handle's record is protected by `guard`.
        let n = unsafe { h.node.deref() };
        // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
        let cur = n.header().info.load(Ordering::SeqCst, guard);
        if cur != h.info {
            if state_of(cur) == IN_PROGRESS {
                // SAFETY: non-null (IN_PROGRESS), protected by `guard`.
                unsafe { help(cur, guard) };
            }
            return false;
        }
    }
    true
}

/// Completes (or aborts) the SCX described by `desc`, on behalf of any
/// thread. Returns `true` iff the SCX committed.
///
/// # Safety
/// `desc` must be non-null and protected by `guard`.
pub(crate) unsafe fn help<N: Record>(desc_s: Shared<'_, ScxRecord<N>>, guard: &Guard) -> bool {
    let desc = desc_s.deref();
    // SAFETY: the payload is immutable while the descriptor is reachable
    // (checkout requires refs == 0, which cannot hold while we help).
    let p = desc.payload();

    // Freezing phase: install `desc` into each V-record's info field, in
    // order, expecting the value its linked LLX observed. Both the expected
    // and the installed word carry incarnation tags, so expectations from a
    // descriptor's previous life fail here (the sequence-number check).
    for i in 0..p.len {
        let node = &*p.v[i];
        let expect: Shared<'_, ScxRecord<N>> = Shared::from_usize(p.info_fields[i]);
        // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
        match node.header().info.compare_exchange(
            expect,
            desc_s,
            Ordering::SeqCst,
            Ordering::SeqCst,
            guard,
        ) {
            Ok(_) => {
                inc_refs(desc_s.as_raw());
                if !expect.is_null() {
                    // The replaced descriptor loses one install reference.
                    defer_dec_refs(expect.as_raw(), guard);
                }
            }
            Err(e) => {
                if e.current != desc_s {
                    // Frozen for someone else, or already past us. If every
                    // record was frozen at some point, the SCX already
                    // succeeded (another helper finished); otherwise it can
                    // never complete and must abort. `all_frozen` is written
                    // before any record in V can be re-frozen (a record is
                    // only released by reaching a terminal state, which
                    // happens after `all_frozen` on the commit path), so
                    // this read is conclusive.
                    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
                    if desc.all_frozen.load(Ordering::SeqCst) {
                        return true;
                    }
                    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
                    let _ = desc.state.compare_exchange(
                        IN_PROGRESS,
                        ABORTED,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    return desc.load_state() == COMMITTED;
                }
                // else: another helper already froze this record for `desc`.
            }
        }
    }

    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    desc.all_frozen.store(true, Ordering::SeqCst);
    // Mark (finalize) every record in R. Idempotent across helpers.
    for i in 0..p.len {
        if p.finalize_mask & (1 << i) != 0 {
            // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
            (*p.v[i]).header().marked.store(true, Ordering::SeqCst);
        }
    }
    // The update CAS. Only the first helper's CAS succeeds: `old` was a
    // fresh allocation when installed and is never re-stored (constraint 1).
    let parent = &*p.fld_node;
    // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
    let _ = parent.child(p.fld_idx).compare_exchange(
        Shared::from(p.old as *const _),
        Shared::from(p.new as *const _),
        Ordering::SeqCst,
        Ordering::SeqCst,
        guard,
    );
    // Commit. Exactly one helper wins the transition and retires R: the
    // finalized records are now unreachable from the entry point (the update
    // CAS happened before the state CAS), so epoch deferral makes the frees
    // safe for concurrent traversals still holding pre-commit guards.
    if desc
        .state
        // SEQCST: LLX/SCX proof assumes one total order over info/mark/child updates (paper §4).
        .compare_exchange(IN_PROGRESS, COMMITTED, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        for i in 0..p.len {
            if p.finalize_mask & (1 << i) != 0 {
                defer_dispose_record(p.v[i], guard);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordHeader;
    use crate::slab::{alloc_owned, Fresh};
    use crossbeam_epoch::{pin, Atomic};

    struct TestNode {
        header: RecordHeader<TestNode>,
        children: [Atomic<TestNode>; 2],
        key: u64,
    }

    impl TestNode {
        fn new(key: u64) -> Fresh<TestNode> {
            alloc_owned(TestNode {
                header: RecordHeader::new(),
                children: [Atomic::null(), Atomic::null()],
                key,
            })
        }
    }

    impl Record for TestNode {
        const ARITY: usize = 2;
        fn header(&self) -> &RecordHeader<Self> {
            &self.header
        }
        fn child(&self, i: usize) -> &Atomic<Self> {
            &self.children[i]
        }
    }

    #[test]
    fn llx_snapshot_of_quiescent_record() {
        let guard = &pin();
        let root = TestNode::new(1).into_shared(guard);
        let h = llx(root, guard).unwrap();
        assert!(h.left().is_null());
        assert!(h.right().is_null());
        assert_eq!(h.node_ref().key, 1);
        // SAFETY: `root` was never published to another thread; test-local teardown.
        unsafe { crate::reclaim::dispose_record(root.as_raw()) };
    }

    #[test]
    fn scx_swings_pointer_and_finalizes() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);
        let a = TestNode::new(1).into_shared(guard);
        // SAFETY: `root` is a live test-local allocation under `guard`.
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        unsafe { root.deref() }.children[0].store(a, Ordering::SeqCst);

        let hr = llx(root, guard).unwrap();
        let ha = llx(a, guard).unwrap();
        let fresh = TestNode::new(2).into_shared(guard);
        let ok = scx(
            &ScxArgs {
                v: &[hr, ha],
                finalize: 0b10, // finalize `a`
                fld_record: 0,
                fld_idx: 0,
                new: fresh,
            },
            guard,
        );
        assert!(ok);
        // SAFETY: `root` stays allocated for the whole test under `guard`.
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        let now = unsafe { root.deref() }.children[0].load(Ordering::SeqCst, guard);
        assert_eq!(now, fresh);
        // `a` is finalized: LLX reports it.
        assert!(matches!(llx(a, guard), Llx::Finalized));
        // Stale handle on root no longer validates.
        assert!(!vlx(&[hr], guard));
        // SAFETY: test-local nodes; nothing else references them after the asserts.
        unsafe {
            crate::reclaim::dispose_record(fresh.as_raw());
            crate::reclaim::dispose_record(root.as_raw());
        }
    }

    #[test]
    fn scx_fails_on_stale_handle() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);
        let h1 = llx(root, guard).unwrap();
        // A first SCX consumes the handle's expected info value.
        let n1 = TestNode::new(1).into_shared(guard);
        assert!(scx(
            &ScxArgs {
                v: &[h1],
                finalize: 0,
                fld_record: 0,
                fld_idx: 0,
                new: n1
            },
            guard
        ));
        // Re-using the stale handle must fail.
        let n2 = TestNode::new(2).into_shared(guard);
        assert!(!scx(
            &ScxArgs {
                v: &[h1],
                finalize: 0,
                fld_record: 0,
                fld_idx: 0,
                new: n2
            },
            guard
        ));
        // SAFETY: `root` stays allocated for the whole test under `guard`.
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        let now = unsafe { root.deref() }.children[0].load(Ordering::SeqCst, guard);
        assert_eq!(now, n1);
        // SAFETY: test-local teardown; the losing SCX's nodes are unreachable.
        unsafe {
            crate::reclaim::dispose_record(n2.as_raw());
            crate::reclaim::dispose_record(n1.as_raw());
            crate::reclaim::dispose_record(root.as_raw());
        }
    }

    #[test]
    fn vlx_validates_unchanged_records() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);
        let h = llx(root, guard).unwrap();
        assert!(vlx(&[h], guard));
        // SAFETY: `root` was never shared; test-local teardown.
        unsafe { crate::reclaim::dispose_record(root.as_raw()) };
    }

    #[test]
    fn llx_after_scx_sees_new_value() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);
        let h = llx(root, guard).unwrap();
        let n1 = TestNode::new(7).into_shared(guard);
        assert!(scx(
            &ScxArgs {
                v: &[h],
                finalize: 0,
                fld_record: 0,
                fld_idx: 1,
                new: n1
            },
            guard
        ));
        let h2 = llx(root, guard).unwrap();
        assert_eq!(h2.right(), n1);
        assert!(h2.left().is_null());
        // SAFETY: test-local teardown of nodes this test allocated.
        unsafe {
            crate::reclaim::dispose_record(n1.as_raw());
            crate::reclaim::dispose_record(root.as_raw());
        }
    }

    /// The sequence-number check: an expectation that names the right
    /// descriptor *address* but the wrong *incarnation tag* must never win
    /// a freezing CAS. This is what makes descriptor reuse ABA-safe — a
    /// stale helper from a descriptor's previous life compares the whole
    /// tagged word, so address recycling alone cannot fool it.
    #[test]
    fn stale_incarnation_tag_cannot_freeze() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);

        // Install a genuine descriptor on root so its info is non-null.
        let h0 = llx(root, guard).unwrap();
        let n1 = TestNode::new(1).into_shared(guard);
        assert!(scx(
            &ScxArgs {
                v: &[h0],
                finalize: 0,
                fld_record: 0,
                fld_idx: 0,
                new: n1
            },
            guard
        ));

        let genuine = llx(root, guard).unwrap();
        assert!(!genuine.info.is_null(), "root must carry a descriptor");

        // A handle identical to `genuine` except for the incarnation tag —
        // exactly what a helper holds after the expected descriptor was
        // returned to a free list and checked out again (seq bumped).
        let stale = LlxHandle {
            // SAFETY: same allocation as `genuine.info`, only the tag differs.
            info: unsafe { Shared::from_usize(genuine.info.into_usize() ^ 0x1) },
            ..genuine
        };
        assert_eq!(
            stale.info.as_raw(),
            genuine.info.as_raw(),
            "same allocation address"
        );
        let n2 = TestNode::new(2).into_shared(guard);
        assert!(
            !scx(
                &ScxArgs {
                    v: &[stale],
                    finalize: 0,
                    fld_record: 0,
                    fld_idx: 0,
                    new: n2
                },
                guard
            ),
            "stale incarnation froze the record (ABA on info)"
        );
        // The record is untouched and the genuine handle still works.
        // SAFETY: `root` stays allocated for the whole test under `guard`.
        // SEQCST: test-only; SC keeps the interleaving argument trivial.
        let now = unsafe { root.deref() }.children[0].load(Ordering::SeqCst, guard);
        assert_eq!(now, n1);
        let n3 = TestNode::new(3).into_shared(guard);
        assert!(scx(
            &ScxArgs {
                v: &[genuine],
                finalize: 0,
                fld_record: 0,
                fld_idx: 0,
                new: n3
            },
            guard
        ));
        // SAFETY: test-local teardown of nodes this test allocated.
        unsafe {
            crate::reclaim::dispose_record(n3.as_raw());
            crate::reclaim::dispose_record(n2.as_raw());
            crate::reclaim::dispose_record(n1.as_raw());
            crate::reclaim::dispose_record(root.as_raw());
        }
    }

    /// VLX mirror of the freeze-side ABA check: a handle naming the right
    /// descriptor address under the wrong incarnation tag must not validate,
    /// even though the record itself is untouched. Without the tagged-word
    /// comparison a recycled descriptor could certify a snapshot from its
    /// previous life as a linearizable read.
    #[test]
    fn stale_incarnation_tag_cannot_validate() {
        let guard = &pin();
        let root = TestNode::new(0).into_shared(guard);
        let h0 = llx(root, guard).unwrap();
        let n1 = TestNode::new(1).into_shared(guard);
        assert!(scx(
            &ScxArgs {
                v: &[h0],
                finalize: 0,
                fld_record: 0,
                fld_idx: 0,
                new: n1
            },
            guard
        ));
        let genuine = llx(root, guard).unwrap();
        assert!(vlx(&[genuine], guard), "fresh handle must validate");
        let stale = LlxHandle {
            // SAFETY: same allocation as `genuine.info`, only the tag differs.
            info: unsafe { Shared::from_usize(genuine.info.into_usize() ^ 0x1) },
            ..genuine
        };
        assert!(
            !vlx(&[stale], guard),
            "stale incarnation validated (ABA on info)"
        );
        // A mixed sequence fails as a whole.
        assert!(!vlx(&[genuine, stale], guard));
        // SAFETY: test-local teardown of nodes this test allocated.
        unsafe {
            crate::reclaim::dispose_record(n1.as_raw());
            crate::reclaim::dispose_record(root.as_raw());
        }
    }

    /// End-to-end reuse: cycling SCXs through one thread must recycle
    /// descriptor allocations through the free list (the update path allocates
    /// nothing in steady state), observable as a repeated descriptor
    /// address with increasing incarnation numbers.
    #[test]
    fn committed_scxs_recycle_descriptors() {
        use std::collections::HashMap;
        let root_addr = {
            let guard = &pin();
            TestNode::new(0).into_shared(guard).as_raw() as usize
        };
        // addr -> incarnations seen installed on root.
        let mut seen: HashMap<usize, Vec<usize>> = HashMap::new();
        for round in 0..600u64 {
            {
                let guard = &pin();
                let root = Shared::from(root_addr as *const TestNode);
                let h = llx(root, guard).unwrap();
                let fresh = TestNode::new(round).into_shared(guard);
                let old = h.right();
                assert!(scx(
                    &ScxArgs {
                        v: &[h],
                        finalize: 0,
                        fld_record: 0,
                        fld_idx: 1,
                        new: fresh
                    },
                    guard
                ));
                if !old.is_null() {
                    // Replaced value: retire it ourselves (not in R).
                    // SAFETY: `old` was displaced by the winning SCX; only the winner retires it.
                    unsafe { crate::reclaim::defer_dispose_record(old.as_raw(), guard) };
                }
                // SAFETY: `root` stays allocated for the whole test under `guard`.
                let cur = unsafe { root.deref() }
                    .header()
                    .info
                    // SEQCST: test-only; SC keeps the interleaving argument trivial.
                    .load(Ordering::SeqCst, guard);
                seen.entry(cur.as_raw() as usize)
                    .or_default()
                    // SAFETY: `cur` was just loaded from a live record's header under `guard`.
                    .push(unsafe { cur.deref() }.incarnation());
            }
            // Let deferred reference drops run so descriptors return to
            // the free list.
            crossbeam_epoch::flush_and_collect();
        }
        let reused = seen.values().filter(|v| v.len() > 1).count();
        assert!(
            reused > 0,
            "no descriptor allocation was ever reused across {} rounds",
            seen.len()
        );
        for incarnations in seen.values() {
            assert!(
                incarnations.windows(2).all(|w| w[0] < w[1]),
                "incarnation numbers must strictly advance per allocation: {incarnations:?}"
            );
        }
        // SAFETY: single-threaded teardown after all workers joined.
        unsafe {
            let guard = crossbeam_epoch::unprotected();
            let root = Shared::from(root_addr as *const TestNode);
            // SEQCST: test-only; SC keeps the interleaving argument trivial.
            let last = root.deref().children[1].load(Ordering::SeqCst, guard);
            if !last.is_null() {
                crate::reclaim::dispose_record(last.as_raw());
            }
            crate::reclaim::dispose_record(root_addr as *const TestNode);
        }
    }
}
