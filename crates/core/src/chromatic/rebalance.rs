//! `Cleanup`, `TryRebalance` and the 22 rebalancing steps (paper §5.2,
//! Figs. 11 and 14–17).
//!
//! Each rebalancing step is implemented once, parameterized by a direction
//! `d` (`0` = the left-hand version drawn in Fig. 11, `1` = its mirror), so
//! the 11 drawn transformations cover all 22. Every step is an instance of
//! the tree update template: LLXs on the affected nodes, then one SCX that
//! swings a single child pointer, replacing the removed set `R` by freshly
//! allocated nodes `N` while the fringe `F_N` is reused.
//!
//! The chosen step set satisfies the paper's **VIOL** property: a violation
//! on the search path to a key stays on that search path (or is eliminated),
//! which is what lets each insertion/deletion clean up the violation it
//! created by repeatedly searching for its own key.

use llxscx::epoch::{Guard, Shared};
use llxscx::{llx, scx, Llx, LlxHandle, ScxArgs};

use super::stats::Step;
use super::ChromaticTree;
use crate::node::Node;

type H<'g, K, V> = LlxHandle<'g, Node<K, V>>;

/// Convenience: LLX that propagates `Fail`/`Finalized` as `None`
/// (the rebalancing attempt is abandoned; `Cleanup` restarts from `entry`).
fn try_llx<'g, K: Send + Sync + 'static, V: Send + Sync + 'static>(
    node: Shared<'g, Node<K, V>>,
    guard: &'g Guard,
) -> Option<H<'g, K, V>> {
    match llx(node, guard) {
        Llx::Snapshot(h) => Some(h),
        _ => None,
    }
}

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// The paper's `Cleanup(key)` (Fig. 15): repeatedly walk the search path
    /// for `key` from `entry`; at the first violation, attempt one
    /// rebalancing step and restart; return once a full walk reaches a leaf
    /// without seeing a violation. By VIOL, the violation this thread's
    /// update created is then guaranteed to be gone.
    #[allow(unused_assignments)] // ALLOW: the walk's final `gp/p` shifts are dead on the exit path; restructuring would obscure the paper's Fig. 12 loop
    pub(crate) fn cleanup(&self, key: &K) {
        loop {
            // One walk per cached-guard entry (see `ChromaticTree::insert`);
            // `true` means the walk was clean and cleanup is done.
            let clean = llxscx::with_guard(|guard| {
                self.stats.bump_cleanup_passes();
                let mut gp: Shared<'_, Node<K, V>> = Shared::null();
                let mut p: Shared<'_, Node<K, V>> = Shared::null();
                let mut ggp: Shared<'_, Node<K, V>> = Shared::null();
                let mut l = self.shell.entry(guard);
                loop {
                    // SAFETY: reached from entry under `guard` (property C3).
                    let l_ref = unsafe { l.deref() };
                    if l_ref.is_leaf(guard) {
                        return true; // clean walk: our violation is gone
                    }
                    let dir = if l_ref.route_left(key) { 0 } else { 1 };
                    ggp = gp;
                    gp = p;
                    p = l;
                    l = l_ref.read_child(dir, guard);
                    // SAFETY: `l` is a child of a live internal node (leaf-oriented tree:
                    // children of internals are never null), read under `guard`.
                    let l2 = unsafe { l.deref() };
                    // SAFETY: `p` was `l`'s parent on this walk; same liveness argument.
                    let p2 = unsafe { p.deref() };
                    if l2.weight() > 1 || (p2.weight() == 0 && l2.weight() == 0) {
                        if !ggp.is_null() {
                            self.try_rebalance(ggp, gp, p, l, guard);
                        }
                        return false; // go back to entry and search again
                    }
                }
            });
            if clean {
                return;
            }
        }
    }

    /// One rebalancing attempt at the violation found at `l` with ancestors
    /// `p`, `gp`, `ggp` (paper Fig. 15, lines 94–130). Failure (a concurrent
    /// update interfered) is fine: the caller restarts its walk.
    pub(crate) fn try_rebalance<'g>(
        &self,
        ggp: Shared<'g, Node<K, V>>,
        gp: Shared<'g, Node<K, V>>,
        p: Shared<'g, Node<K, V>>,
        l: Shared<'g, Node<K, V>>,
        guard: &'g Guard,
    ) {
        let Some(hr) = try_llx(ggp, guard) else {
            return;
        };
        if hr.left() != gp && hr.right() != gp {
            return;
        }
        let Some(hrx) = try_llx(gp, guard) else {
            return;
        };
        if hrx.left() != p && hrx.right() != p {
            return;
        }
        let Some(hrxx) = try_llx(p, guard) else {
            return;
        };

        // SAFETY: `l` reached from entry under `guard`; weights immutable.
        let l_ref = unsafe { l.deref() };
        if l_ref.weight() > 1 {
            // Overweight violation at l.
            let d = if l == hrxx.left() {
                0
            } else if l == hrxx.right() {
                1
            } else {
                return;
            };
            let Some(hl) = try_llx(l, guard) else { return };
            self.overweight(&hr, &hrx, &hrxx, &hl, d, guard);
        } else {
            // Red-red violation at l (l.w = p.w = 0, gp.w ≠ 0).
            if p == hrx.left() {
                let rxr = hrx.right();
                // SAFETY: gp is internal (it has child p), so both children
                // are non-null.
                if unsafe { rxr.deref() }.weight() == 0 {
                    let Some(hrxr) = try_llx(rxr, guard) else {
                        return;
                    };
                    self.do_blk(&hr, &hrx, &hrxx, &hrxr, guard);
                } else if l == hrxx.left() {
                    self.do_rb1(&hr, &hrx, &hrxx, 0, guard);
                } else if l == hrxx.right() {
                    let Some(hl) = try_llx(l, guard) else { return };
                    self.do_rb2(&hr, &hrx, &hrxx, &hl, 0, guard);
                }
            } else if p == hrx.right() {
                let rxl = hrx.left();
                // SAFETY: `rx` is internal (its child `p` exists), so `rxl` is non-null.
                if unsafe { rxl.deref() }.weight() == 0 {
                    let Some(hrxl) = try_llx(rxl, guard) else {
                        return;
                    };
                    self.do_blk(&hr, &hrx, &hrxl, &hrxx, guard);
                } else if l == hrxx.right() {
                    self.do_rb1(&hr, &hrx, &hrxx, 1, guard);
                } else if l == hrxx.left() {
                    let Some(hl) = try_llx(l, guard) else { return };
                    self.do_rb2(&hr, &hrx, &hrxx, &hl, 1, guard);
                }
            }
        }
    }

    /// `OverweightLeft`/`OverweightRight` (paper Fig. 16), merged via the
    /// direction `d` of the overweight child under its parent `rxx`.
    ///
    /// Handles: `hr → r (ggp)`, `hrx → rx (gp)`, `hrxx → rxx (p)`,
    /// `hl → the overweight child`.
    fn overweight<'g>(
        &self,
        hr: &H<'g, K, V>,
        hrx: &H<'g, K, V>,
        hrxx: &H<'g, K, V>,
        hl: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) {
        let o = 1 - d;
        let sib = hrxx.child(o);
        debug_assert!(!sib.is_null(), "overweight node's parent must be internal");
        // SAFETY: weights are immutable; nodes protected by `guard`.
        let sib_w = unsafe { sib.deref() }.weight();
        let rxx_w = hrxx.node_ref().weight();

        if sib_w == 0 {
            if rxx_w == 0 {
                // rxx is red with a red child (the sibling): fix that
                // red-red violation first, one level up (u = r, ux = rx).
                if hrxx.node == hrx.left() {
                    let rxr = hrx.right();
                    // SAFETY: `rxx` is a child of internal `rx`, so `rxr` is non-null.
                    if unsafe { rxr.deref() }.weight() == 0 {
                        let Some(hrxr) = try_llx(rxr, guard) else {
                            return;
                        };
                        self.do_blk(hr, hrx, hrxx, &hrxr, guard);
                    } else if o == 1 {
                        // red-red at rxx's right child, rxx a left child: inside
                        let Some(hs) = try_llx(sib, guard) else {
                            return;
                        };
                        self.do_rb2(hr, hrx, hrxx, &hs, 0, guard);
                    } else {
                        // red-red at rxx's left child, rxx a left child: outside
                        self.do_rb1(hr, hrx, hrxx, 0, guard);
                    }
                } else if hrxx.node == hrx.right() {
                    let rxl = hrx.left();
                    // SAFETY: `rxx` is a child of internal `rx`, so `rxl` is non-null.
                    if unsafe { rxl.deref() }.weight() == 0 {
                        let Some(hrxl) = try_llx(rxl, guard) else {
                            return;
                        };
                        self.do_blk(hr, hrx, &hrxl, hrxx, guard);
                    } else if o == 1 {
                        // red-red at rxx's right child, rxx a right child: outside
                        self.do_rb1(hr, hrx, hrxx, 1, guard);
                    } else {
                        let Some(hs) = try_llx(sib, guard) else {
                            return;
                        };
                        self.do_rb2(hr, hrx, hrxx, &hs, 1, guard);
                    }
                }
                return;
            }
            // Red sibling, black parent: W1–W4 / an RB2 at the rx level,
            // depending on the sibling's child nearer the violation.
            let Some(hs) = try_llx(sib, guard) else {
                return;
            };
            let sl = hs.child(d);
            if sl.is_null() {
                return; // sibling became a leaf: a node changed under us
            }
            // SAFETY: `s` was re-checked internal above, so `sl` is non-null.
            let sl_w = unsafe { sl.deref() }.weight();
            let Some(hsl) = try_llx(sl, guard) else {
                return;
            };
            if sl_w > 1 {
                self.do_w1(hrx, hrxx, hl, &hs, &hsl, d, guard);
            } else if sl_w == 0 {
                // Red-red at sl under the red sibling: rotate it out
                // (u = rx... here u = rxx's parent level: u = rx? No —
                // paper line 152: V = ⟨rx, rxx, rxxr, rxxrl⟩, u = rx).
                self.do_rb2(hrx, hrxx, &hs, &hsl, o, guard);
            } else {
                // sl.w == 1: W2/W3/W4 based on sl's children.
                let far = hsl.child(o);
                if far.is_null() {
                    return; // sl is a leaf: a node we LLXed was modified
                }
                // SAFETY: `sl` was re-checked internal above; its children are non-null.
                if unsafe { far.deref() }.weight() == 0 {
                    let Some(hfar) = try_llx(far, guard) else {
                        return;
                    };
                    self.do_w4(hrx, hrxx, hl, &hs, &hsl, &hfar, d, guard);
                } else {
                    let near = hsl.child(d);
                    // SAFETY: as for `far`: child of the internal `sl`.
                    if unsafe { near.deref() }.weight() == 0 {
                        let Some(hnear) = try_llx(near, guard) else {
                            return;
                        };
                        self.do_w3(hrx, hrxx, hl, &hs, &hsl, &hnear, d, guard);
                    } else {
                        self.do_w2(hrx, hrxx, hl, &hs, &hsl, d, guard);
                    }
                }
            }
        } else if sib_w == 1 {
            let Some(hs) = try_llx(sib, guard) else {
                return;
            };
            let far = hs.child(o);
            if far.is_null() {
                return; // sibling is a leaf: a node we LLXed was modified
            }
            // SAFETY: `s` was re-checked internal above; its children are non-null.
            if unsafe { far.deref() }.weight() == 0 {
                let Some(hfar) = try_llx(far, guard) else {
                    return;
                };
                self.do_w5(hrx, hrxx, hl, &hs, &hfar, d, guard);
            } else {
                let near = hs.child(d);
                // SAFETY: as for `far`: child of the internal `s`.
                if unsafe { near.deref() }.weight() == 0 {
                    let Some(hnear) = try_llx(near, guard) else {
                        return;
                    };
                    self.do_w6(hrx, hrxx, hl, &hs, &hnear, d, guard);
                } else {
                    self.do_push(hrx, hrxx, hl, &hs, d, guard);
                }
            }
        } else {
            // Sibling also overweight: W7.
            let Some(hs) = try_llx(sib, guard) else {
                return;
            };
            self.do_w7(hrx, hrxx, hl, &hs, d, guard);
        }
    }
}

// ---------------------------------------------------------------------------
// The transformations of Fig. 11. Shared helpers first.
// ---------------------------------------------------------------------------

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Weight for a replacement node installed under `u`: the chromatic tree
    /// root (parent has the sentinel key `∞`) always keeps weight 1
    /// (paper §C.4, proof of Lemma 28).
    fn top_weight(hu: &H<'_, K, V>, computed: u32) -> u32 {
        if hu.node_ref().is_sentinel_key() {
            1
        } else {
            computed
        }
    }

    /// Fresh copy of the node behind `h` with a new weight; children (the
    /// mutable fields) come from the LLX snapshot.
    fn copy<'g>(h: &H<'g, K, V>, weight: u32, guard: &'g Guard) -> Shared<'g, Node<K, V>> {
        let n = h.node_ref();
        if h.left().is_null() {
            Node::leaf(n.key().cloned(), n.value().cloned(), weight)
        } else {
            Node::internal(n.key().cloned(), weight, h.left(), h.right())
        }
        .into_shared(guard)
    }

    /// Fresh internal node with children given per *side* index.
    fn mk<'g>(
        key: Option<&K>,
        weight: u32,
        d: usize,
        child_d: Shared<'g, Node<K, V>>,
        child_o: Shared<'g, Node<K, V>>,
        guard: &'g Guard,
    ) -> Shared<'g, Node<K, V>> {
        let (l, r) = if d == 0 {
            (child_d, child_o)
        } else {
            (child_o, child_d)
        };
        Node::internal(key.cloned(), weight, l, r).into_shared(guard)
    }

    /// Runs the SCX for a rebalancing step: `v` in BFS order, finalizing all
    /// of `v` except the first entry (`u`), swinging `u`'s pointer to `ux`.
    /// On failure the freshly built nodes in `created` are released.
    fn commit_step<'g>(
        &self,
        step: Step,
        v: &[H<'g, K, V>],
        new: Shared<'g, Node<K, V>>,
        created: &[Shared<'g, Node<K, V>>],
        guard: &'g Guard,
    ) -> bool {
        let hu = &v[0];
        let hux = &v[1];
        let fld_idx = if hu.left() == hux.node {
            0
        } else if hu.right() == hux.node {
            1
        } else {
            // Should be impossible: callers validated the edge. Treat as a
            // failed attempt.
            for &n in created {
                // SAFETY: never published.
                unsafe { llxscx::reclaim::dispose_record(n.as_raw()) };
            }
            return false;
        };
        let finalize = ((1u16 << v.len()) - 2) as u8; // all of V except u
        let ok = scx(
            &ScxArgs {
                v,
                finalize,
                fld_record: 0,
                fld_idx,
                new,
            },
            guard,
        );
        if ok {
            self.stats.bump_step(step);
        } else {
            for &n in created {
                // SAFETY: never published (the SCX failed before the update
                // CAS could store `new`).
                unsafe { llxscx::reclaim::dispose_record(n.as_raw()) };
            }
        }
        ok
    }

    /// Orders the two children handles of `ux` in breadth-first (left,
    /// right) order given the side `d` of the first.
    fn bfs2<'g>(a: H<'g, K, V>, b: H<'g, K, V>, d: usize) -> [H<'g, K, V>; 2] {
        if d == 0 {
            [a, b]
        } else {
            [b, a]
        }
    }

    /// **BLK** (recolor, its own mirror image): `ux` with two red children
    /// is replaced by a copy of weight `ux.w − 1` whose children are copies
    /// with weight 1. Applied only when a red-red violation exists below.
    fn do_blk<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        huxl: &H<'g, K, V>,
        huxr: &H<'g, K, V>,
        guard: &'g Guard,
    ) -> bool {
        let nl = Self::copy(huxl, 1, guard);
        let nr = Self::copy(huxr, 1, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight().max(1) - 1);
        let n = Node::internal(hux.node_ref().key().cloned(), w, nl, nr).into_shared(guard);
        self.commit_step(
            Step::Blk,
            &[*hu, *hux, *huxl, *huxr],
            n,
            &[nl, nr, n],
            guard,
        )
    }

    /// **RB1 / RB1s** (single rotation): fixes a red-red violation at the
    /// *outside* grandchild. `hc` is `ux`'s child on side `d` (red, with a
    /// red child on side `d`).
    fn do_rb1<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        hc: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let o = 1 - d;
        let inner = Self::mk(hux.node_ref().key(), 0, d, hc.child(o), hux.child(o), guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = Self::mk(hc.node_ref().key(), w, d, hc.child(d), inner, guard);
        self.commit_step(Step::Rb1, &[*hu, *hux, *hc], n, &[inner, n], guard)
    }

    /// **RB2 / RB2s** (double rotation, Fig. 17): fixes a red-red violation
    /// at the *inside* grandchild. `hc` is `ux`'s child on side `d` (red);
    /// `hgc` is `hc`'s child on side `1 − d` (red).
    fn do_rb2<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        hc: &H<'g, K, V>,
        hgc: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let o = 1 - d;
        let nd = Self::mk(hc.node_ref().key(), 0, d, hc.child(d), hgc.child(d), guard);
        let no = Self::mk(
            hux.node_ref().key(),
            0,
            d,
            hgc.child(o),
            hux.child(o),
            guard,
        );
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = Self::mk(hgc.node_ref().key(), w, d, nd, no, guard);
        self.commit_step(Step::Rb2, &[*hu, *hux, *hc, *hgc], n, &[nd, no, n], guard)
    }

    /// **PUSH / PUSHs**: the overweight child `ha` (side `d`) gives one
    /// weight unit to the parent; the weight-1 sibling `hs` goes red.
    /// Applied only when the sibling's children are not red.
    fn do_push<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let na = Self::copy(ha, ha.node_ref().weight() - 1, guard);
        let ns = Self::copy(hs, 0, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight() + 1);
        let n = Self::mk(hux.node_ref().key(), w, d, na, ns, guard);
        let [c0, c1] = Self::bfs2(*ha, *hs, d);
        self.commit_step(Step::Push, &[*hu, *hux, c0, c1], n, &[na, ns, n], guard)
    }

    /// **W1 / W1s**: red sibling whose near child is also overweight — one
    /// rotation reduces both overweights.
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w1<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hsl: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let o = 1 - d;
        let na = Self::copy(ha, ha.node_ref().weight() - 1, guard);
        let nsl = Self::copy(hsl, hsl.node_ref().weight() - 1, guard);
        let nl = Self::mk(hux.node_ref().key(), 1, d, na, nsl, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = Self::mk(hs.node_ref().key(), w, d, nl, hs.child(o), guard);
        let [c0, c1] = Self::bfs2(*ha, *hs, d);
        self.commit_step(
            Step::W1,
            &[*hu, *hux, c0, c1, *hsl],
            n,
            &[na, nsl, nl, n],
            guard,
        )
    }

    /// **W2 / W2s**: red sibling, near child weight 1 with no red child —
    /// rotation; the near child goes red.
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w2<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hsl: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let o = 1 - d;
        let na = Self::copy(ha, ha.node_ref().weight() - 1, guard);
        let nsl = Self::copy(hsl, 0, guard);
        let nl = Self::mk(hux.node_ref().key(), 1, d, na, nsl, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = Self::mk(hs.node_ref().key(), w, d, nl, hs.child(o), guard);
        let [c0, c1] = Self::bfs2(*ha, *hs, d);
        self.commit_step(
            Step::W2,
            &[*hu, *hux, c0, c1, *hsl],
            n,
            &[na, nsl, nl, n],
            guard,
        )
    }

    /// **W3 / W3s**: red sibling, near child weight 1 whose *near* child is
    /// red — double rotation through that red grandchild (`hd`).
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w3<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hsl: &H<'g, K, V>,
        hd: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let o = 1 - d;
        let na = Self::copy(ha, ha.node_ref().weight() - 1, guard);
        let nll = Self::mk(hux.node_ref().key(), 0, d, na, hd.child(d), guard);
        let nlr = Self::mk(hsl.node_ref().key(), 0, d, hd.child(o), hsl.child(o), guard);
        let nl = Self::mk(hd.node_ref().key(), 1, d, nll, nlr, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = Self::mk(hs.node_ref().key(), w, d, nl, hs.child(o), guard);
        let [c0, c1] = Self::bfs2(*ha, *hs, d);
        self.commit_step(
            Step::W3,
            &[*hu, *hux, c0, c1, *hsl, *hd],
            n,
            &[na, nll, nlr, nl, n],
            guard,
        )
    }

    /// **W4 / W4s**: red sibling, near child weight 1 whose *far* child is
    /// red — rotation through the near child (`hsl`); `hfar` is its red
    /// child on the far side.
    ///
    /// Weight placement: the replacement triple is `(0, 1, 1)` — a red node
    /// over two weight-1 internals — NOT `(1, 0, 0)`. Both preserve path
    /// sums, but with `(1, 0, 0)` the sibling's *near* grandchild (whose
    /// weight is unconstrained here, unlike in W2/W3) would sit under a red
    /// new node and, if itself red, mint a red-red violation that no
    /// in-progress operation owns — breaking Lemma 26's accounting and
    /// leaving a violation nothing ever cleans up (observed as a `Cleanup`
    /// livelock under contention before this was fixed).
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w4<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hsl: &H<'g, K, V>,
        hfar: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let o = 1 - d;
        let na = Self::copy(ha, ha.node_ref().weight() - 1, guard);
        let p2 = Self::mk(hux.node_ref().key(), 1, d, na, hsl.child(d), guard);
        let p3 = Self::mk(
            hfar.node_ref().key(),
            1,
            d,
            hfar.child(d),
            hfar.child(o),
            guard,
        );
        let p = Self::mk(hsl.node_ref().key(), 0, d, p2, p3, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = Self::mk(hs.node_ref().key(), w, d, p, hs.child(o), guard);
        let [c0, c1] = Self::bfs2(*ha, *hs, d);
        self.commit_step(
            Step::W4,
            &[*hu, *hux, c0, c1, *hsl, *hfar],
            n,
            &[na, p2, p3, p, n],
            guard,
        )
    }

    /// **W5 / W5s**: weight-1 sibling whose *far* child is red — single
    /// rotation (the classic red-black "case 4").
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w5<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hfar: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let o = 1 - d;
        let na = Self::copy(ha, ha.node_ref().weight() - 1, guard);
        let nl = Self::mk(hux.node_ref().key(), 1, d, na, hs.child(d), guard);
        let nr = Self::mk(
            hfar.node_ref().key(),
            1,
            d,
            hfar.child(d),
            hfar.child(o),
            guard,
        );
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = Self::mk(hs.node_ref().key(), w, d, nl, nr, guard);
        let [c0, c1] = Self::bfs2(*ha, *hs, d);
        self.commit_step(
            Step::W5,
            &[*hu, *hux, c0, c1, *hfar],
            n,
            &[na, nl, nr, n],
            guard,
        )
    }

    /// **W6 / W6s**: weight-1 sibling whose *near* child is red — double
    /// rotation (the classic red-black "case 3").
    #[allow(clippy::too_many_arguments)] // ALLOW: signature is the paper's rotation context — one handle per frozen node; bundling would hide which nodes each case freezes
    fn do_w6<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        hnear: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let o = 1 - d;
        let na = Self::copy(ha, ha.node_ref().weight() - 1, guard);
        let nl = Self::mk(hux.node_ref().key(), 1, d, na, hnear.child(d), guard);
        let nr = Self::mk(
            hs.node_ref().key(),
            1,
            d,
            hnear.child(o),
            hs.child(o),
            guard,
        );
        let w = Self::top_weight(hu, hux.node_ref().weight());
        let n = Self::mk(hnear.node_ref().key(), w, d, nl, nr, guard);
        let [c0, c1] = Self::bfs2(*ha, *hs, d);
        self.commit_step(
            Step::W6,
            &[*hu, *hux, c0, c1, *hnear],
            n,
            &[na, nl, nr, n],
            guard,
        )
    }

    /// **W7 / W7s**: both children overweight — each gives one weight unit
    /// to the parent.
    fn do_w7<'g>(
        &self,
        hu: &H<'g, K, V>,
        hux: &H<'g, K, V>,
        ha: &H<'g, K, V>,
        hs: &H<'g, K, V>,
        d: usize,
        guard: &'g Guard,
    ) -> bool {
        let na = Self::copy(ha, ha.node_ref().weight() - 1, guard);
        let ns = Self::copy(hs, hs.node_ref().weight() - 1, guard);
        let w = Self::top_weight(hu, hux.node_ref().weight() + 1);
        let n = Self::mk(hux.node_ref().key(), w, d, na, ns, guard);
        let [c0, c1] = Self::bfs2(*ha, *hs, d);
        self.commit_step(Step::W7, &[*hu, *hux, c0, c1], n, &[na, ns, n], guard)
    }
}
