//! # Relaxed AVL tree via the tree update template (paper §7)
//!
//! The paper reports that a first-year undergraduate produced a
//! non-blocking relaxed AVL tree (Larsen, *AVL trees with relaxed balance*)
//! from the template in under a week, performing on par with the chromatic
//! tree. This crate reproduces that exercise with a **simplified
//! rank-relaxation**: every node carries an immutable *rank*; updates leave
//! ancestor ranks stale (the relaxation), and localized template updates —
//! rank refreshes and single/double rotations — repair staleness and
//! imbalance afterwards, interleaving freely with other operations.
//!
//! The difference from Larsen's calculus: rebalancing here is *best-effort
//! with a bounded number of repair passes per update* rather than amortized
//! O(log n) steps with a proven convergence bound.
//! Dictionary semantics are exact regardless — they come from the template,
//! which guarantees linearizability and lock-freedom independently of any
//! balancing decisions; ranks only steer rotations.

#![warn(missing_docs)]

use llxscx::epoch::{Guard, Shared};
use llxscx::guard_cache::with_guard;
use llxscx::{llx, scx, Llx, LlxHandle, ScxArgs};
use nbtree::leaf_tree::{LeafTree, SearchPath};
use nbtree::node::Node;

type H<'g, K, V> = LlxHandle<'g, Node<K, V>>;

/// A lock-free ordered map: leaf-oriented BST with relaxed AVL-style
/// rebalancing. The node type and sentinel shell ([`LeafTree`]) are shared
/// with the chromatic tree; the `weight` field stores the *rank* here, and
/// the sentinels have rank 0.
pub struct RelaxedAvl<K: Send + Sync + 'static, V: Send + Sync + 'static> {
    shell: LeafTree<K, V>,
}

/// Repair passes per update: enough to fix the whole path in quiescence
/// (ranks only need one pass per level), bounded so no interleaving can
/// capture an updater indefinitely.
const MAX_REPAIR_PASSES: usize = 64;

fn rank<K: Send + Sync + 'static, V: Send + Sync + 'static>(n: Shared<'_, Node<K, V>>) -> u32 {
    if n.is_null() {
        0
    } else {
        // SAFETY: caller holds a guard; ranks (weights) immutable.
        unsafe { n.deref() }.weight()
    }
}

impl<K, V> RelaxedAvl<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty map.
    pub fn new() -> Self {
        RelaxedAvl {
            shell: LeafTree::new(0),
        }
    }

    /// Lookup with plain reads.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shell.get(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shell.contains_key(key)
    }

    /// Inserts `key → value`; returns the displaced value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        loop {
            let done = with_guard(|guard| {
                let SearchPath { p, leaf: l, .. } = self.shell.search(&key, guard);
                let hp = llx_ok(p, guard)?;
                let dir = if hp.left() == l {
                    0
                } else if hp.right() == l {
                    1
                } else {
                    return None;
                };
                let hl = llx_ok(l, guard)?;
                let leaf = hl.node_ref();
                let (new, finalize, old, created) = if leaf.key_eq(&key) {
                    let old = leaf.value().cloned();
                    let n = Node::leaf(Some(key.clone()), Some(value.clone()), leaf.weight())
                        .into_shared(guard);
                    (n, 0b10u8, old, vec![n])
                } else {
                    let new_leaf =
                        Node::leaf(Some(key.clone()), Some(value.clone()), 0).into_shared(guard);
                    let l_copy = Node::leaf(leaf.key().cloned(), leaf.value().cloned(), 0)
                        .into_shared(guard);
                    // New internal rank 1: correct locally; ancestors go stale —
                    // that is the relaxation the repair pass fixes.
                    let n = if leaf.route_left(&key) {
                        Node::internal(leaf.key().cloned(), 1, new_leaf, l_copy)
                    } else {
                        Node::internal(Some(key.clone()), 1, l_copy, new_leaf)
                    }
                    .into_shared(guard);
                    (n, 0b10u8, None, vec![new_leaf, l_copy, n])
                };
                let ok = scx(
                    &ScxArgs {
                        v: &[hp, hl],
                        finalize,
                        fld_record: 0,
                        fld_idx: dir,
                        new,
                    },
                    guard,
                );
                if ok {
                    return Some(old);
                }
                for n in created {
                    // SAFETY: never published.
                    unsafe { llxscx::reclaim::dispose_record(n.as_raw()) };
                }
                None
            });
            if let Some(old) = done {
                self.repair(&key);
                return old;
            }
        }
    }

    /// Removes `key`; returns its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        loop {
            let done = with_guard(|guard| {
                let SearchPath { gp, p, leaf: l } = self.shell.search(key, guard);
                // SAFETY: `search` returns a leaf reached under `guard`; never null.
                if !unsafe { l.deref() }.key_eq(key) {
                    return Some((None, false));
                }
                if gp.is_null() {
                    return Some((None, false));
                }
                let hgp = llx_ok(gp, guard)?;
                let dir = if hgp.left() == p {
                    0
                } else if hgp.right() == p {
                    1
                } else {
                    return None;
                };
                let hp = llx_ok(p, guard)?;
                let (sib, l_is_left) = if hp.left() == l {
                    (hp.right(), true)
                } else if hp.right() == l {
                    (hp.left(), false)
                } else {
                    return None;
                };
                let hl = llx_ok(l, guard)?;
                let hs = llx_ok(sib, guard)?;
                let s_ref = hs.node_ref();
                let new = if s_ref.is_leaf(guard) {
                    Node::leaf(s_ref.key().cloned(), s_ref.value().cloned(), s_ref.weight())
                } else {
                    Node::internal(s_ref.key().cloned(), s_ref.weight(), hs.left(), hs.right())
                }
                .into_shared(guard);
                let v = if l_is_left {
                    [hgp, hp, hl, hs]
                } else {
                    [hgp, hp, hs, hl]
                };
                let ok = scx(
                    &ScxArgs {
                        v: &v,
                        finalize: 0b1110,
                        fld_record: 0,
                        fld_idx: dir,
                        new,
                    },
                    guard,
                );
                if ok {
                    let old = hl.node_ref().value().cloned();
                    return Some((old, true));
                }
                // SAFETY: never published.
                unsafe { llxscx::reclaim::dispose_record(new.as_raw()) };
                None
            });
            if let Some((old, fix)) = done {
                if fix {
                    self.repair(key);
                }
                return old;
            }
        }
    }

    /// Bounded repair: walk the search path, fix the first stale-rank or
    /// imbalanced node with one localized template update, restart; stop
    /// after a clean walk or `MAX_REPAIR_PASSES`.
    fn repair(&self, key: &K) {
        for _ in 0..MAX_REPAIR_PASSES {
            let fixed = with_guard(|guard| {
                let mut p = self.shell.entry(guard);
                // SAFETY: the entry sentinel is never reclaimed.
                let mut n = unsafe { p.deref() }.read_child(0, guard);
                let mut fixed = false;
                loop {
                    if n.is_null() {
                        break;
                    }
                    // SAFETY: `n` is non-null (checked above) and reached under `guard`.
                    let n_ref = unsafe { n.deref() };
                    if n_ref.is_leaf(guard) {
                        break;
                    }
                    let (cl, cr) = (n_ref.read_child(0, guard), n_ref.read_child(1, guard));
                    let (rl, rr) = (rank(cl), rank(cr));
                    let want = 1 + rl.max(rr);
                    let skew = rl.abs_diff(rr);
                    if !n_ref.is_sentinel_key() && (n_ref.weight() != want || skew >= 2) {
                        fixed = self.fix_at(p, n, guard);
                        break;
                    }
                    p = n;
                    let dir = if n_ref.route_left(key) { 0 } else { 1 };
                    n = n_ref.read_child(dir, guard);
                }
                fixed
            });
            if !fixed {
                return; // clean walk (or unfixable this pass: bounded retry)
            }
        }
    }

    /// One localized fix at `n` (child of `p`): rank refresh if balanced,
    /// otherwise an AVL single/double rotation — each a template instance.
    fn fix_at<'g>(
        &self,
        p: Shared<'g, Node<K, V>>,
        n: Shared<'g, Node<K, V>>,
        guard: &'g Guard,
    ) -> bool {
        let Some(hp) = llx_ok(p, guard) else {
            return false;
        };
        let dir = if hp.left() == n {
            0
        } else if hp.right() == n {
            1
        } else {
            return false;
        };
        let Some(hn) = llx_ok(n, guard) else {
            return false;
        };
        let (rl, rr) = (rank(hn.left()), rank(hn.right()));
        if rl.abs_diff(rr) < 2 {
            // Rank refresh: replace by a copy with the recomputed rank.
            let new = Node::internal(
                hn.node_ref().key().cloned(),
                1 + rl.max(rr),
                hn.left(),
                hn.right(),
            )
            .into_shared(guard);
            let ok = scx(
                &ScxArgs {
                    v: &[hp, hn],
                    finalize: 0b10,
                    fld_record: 0,
                    fld_idx: dir,
                    new,
                },
                guard,
            );
            if !ok {
                // SAFETY: never published.
                unsafe { llxscx::reclaim::dispose_record(new.as_raw()) };
            }
            return ok;
        }
        // Rotation toward the short side. `heavy` = taller child index.
        let heavy = if rl > rr { 0 } else { 1 };
        let light = 1 - heavy;
        let c = hn.child(heavy);
        let Some(hc) = llx_ok(c, guard) else {
            return false;
        };
        if hc.node_ref().is_leaf(guard) {
            return false; // stale ranks below; refresh will happen there
        }
        let (inner, outer) = (hc.child(light), hc.child(heavy));
        let (created, new, v, finalize): (Vec<_>, _, Vec<H<K, V>>, u8) =
            if rank(outer) >= rank(inner) {
                // Single rotation: c rises.
                let nn = mk(
                    hn.node_ref().key(),
                    1 + rank(inner).max(rank(hn.child(light))),
                    heavy,
                    inner,
                    hn.child(light),
                    guard,
                );
                // SAFETY: `nn` was allocated by this rotation; non-null by construction.
                let top_rank = 1 + rank(outer).max(unsafe { nn.deref() }.weight());
                let top = mk(hc.node_ref().key(), top_rank, heavy, outer, nn, guard);
                (vec![nn, top], top, vec![hp, hn, hc], 0b110)
            } else {
                // Double rotation: c's inner child rises.
                let Some(hi) = llx_ok(inner, guard) else {
                    return false;
                };
                if hi.node_ref().is_leaf(guard) {
                    return false;
                }
                let (gi, go) = (hi.child(light), hi.child(heavy));
                let nc = mk(
                    hc.node_ref().key(),
                    1 + rank(outer).max(rank(go)),
                    heavy,
                    outer,
                    go,
                    guard,
                );
                let nn = mk(
                    hn.node_ref().key(),
                    1 + rank(gi).max(rank(hn.child(light))),
                    heavy,
                    gi,
                    hn.child(light),
                    guard,
                );
                // SAFETY: `nc` was allocated by this rotation; non-null by construction.
                let top_rank = 1 + unsafe { nc.deref() }
                    .weight()
                    // SAFETY: `nn` likewise.
                    .max(unsafe { nn.deref() }.weight());
                let top = mk(hi.node_ref().key(), top_rank, heavy, nc, nn, guard);
                (vec![nc, nn, top], top, vec![hp, hn, hc, hi], 0b1110)
            };
        let ok = scx(
            &ScxArgs {
                v: &v,
                finalize,
                fld_record: 0,
                fld_idx: dir,
                new,
            },
            guard,
        );
        if !ok {
            for c in created {
                // SAFETY: never published.
                unsafe { llxscx::reclaim::dispose_record(c.as_raw()) };
            }
        }
        ok
    }

    /// All pairs with keys in `bounds`, sorted — an atomic snapshot via the
    /// shared VLX-validated scan of [`nbtree::range`] (ranks are irrelevant
    /// to the scan, which only follows routing keys).
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        self.shell.range_with(bounds, || {})
    }

    /// Number of keys (O(n) snapshot).
    pub fn len(&self) -> usize {
        self.shell.len()
    }

    /// Whether the map is empty (O(1)).
    pub fn is_empty(&self) -> bool {
        self.shell.is_empty()
    }

    /// Sorted snapshot of the contents.
    pub fn collect(&self) -> Vec<(K, V)> {
        self.shell.collect()
    }

    /// Longest root-to-leaf path (diagnostics).
    pub fn height(&self) -> usize {
        fn rec<K: Send + Sync + 'static, V: Send + Sync + 'static>(
            x: Shared<'_, Node<K, V>>,
            guard: &Guard,
        ) -> usize {
            if x.is_null() {
                return 0;
            }
            // SAFETY: `x` is non-null (checked above) and reached under `guard`.
            let node = unsafe { x.deref() };
            if node.is_leaf(guard) {
                return 1;
            }
            1 + rec(node.read_child(0, guard), guard).max(rec(node.read_child(1, guard), guard))
        }
        with_guard(|guard| rec(self.shell.entry(guard), guard).saturating_sub(2))
    }
}

fn llx_ok<'g, K: Send + Sync + 'static, V: Send + Sync + 'static>(
    n: Shared<'g, Node<K, V>>,
    guard: &'g Guard,
) -> Option<H<'g, K, V>> {
    match llx(n, guard) {
        Llx::Snapshot(h) => Some(h),
        _ => None,
    }
}

fn mk<'g, K: Ord + Clone + Send + Sync + 'static, V: Clone + Send + Sync + 'static>(
    key: Option<&K>,
    rank: u32,
    heavy: usize,
    child_heavy: Shared<'g, Node<K, V>>,
    child_light: Shared<'g, Node<K, V>>,
    guard: &'g Guard,
) -> Shared<'g, Node<K, V>> {
    let (l, r) = if heavy == 0 {
        (child_heavy, child_light)
    } else {
        (child_light, child_heavy)
    };
    Node::internal(key.cloned(), rank, l, r).into_shared(guard)
}

impl<K, V> Default for RelaxedAvl<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn basics() {
        let t = RelaxedAvl::new();
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(1, 11), Some(10));
        assert_eq!(t.get(&1), Some(11));
        assert_eq!(t.remove(&1), Some(11));
        assert_eq!(t.remove(&1), None);
        assert!(t.is_empty());
    }

    #[test]
    fn random_against_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let t = RelaxedAvl::new();
        let mut model = BTreeMap::new();
        for step in 0..6000u64 {
            let k = rng.gen_range(0..300u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(t.insert(k, step), model.insert(k, step)),
                1 => assert_eq!(t.remove(&k), model.remove(&k)),
                _ => assert_eq!(t.get(&k), model.get(&k).copied()),
            }
        }
        assert_eq!(t.collect(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn range_matches_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let t = RelaxedAvl::new();
        let mut model = BTreeMap::new();
        for step in 0..2000u64 {
            let k = rng.gen_range(0..256u64);
            if rng.gen_bool(0.7) {
                t.insert(k, step);
                model.insert(k, step);
            } else {
                t.remove(&k);
                model.remove(&k);
            }
            let lo = rng.gen_range(0..256u64);
            let hi = lo + rng.gen_range(0..64u64);
            let expect: Vec<_> = model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(t.range(lo..=hi), expect, "[{lo}, {hi}]");
        }
        assert_eq!(t.range(..), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn rotations_keep_ascending_input_shallow() {
        let t = RelaxedAvl::new();
        let n = 4096u64;
        for i in 0..n {
            t.insert(i, i);
        }
        let h = t.height();
        // Without rebalancing the height would be n; with best-effort
        // relaxed rotations it must stay within a small factor of log2(n).
        assert!(h <= 40, "height {h} suggests rebalancing is not working");
        for i in 0..n {
            assert_eq!(t.get(&i), Some(i));
        }
    }

    #[test]
    fn concurrent_stripes() {
        use std::sync::Arc;
        let t = Arc::new(RelaxedAvl::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let base = tid * 1500;
                    for i in 0..1500 {
                        assert_eq!(t.insert(base + i, i), None);
                    }
                    for i in (0..1500).step_by(2) {
                        assert_eq!(t.remove(&(base + i)), Some(i));
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * 750);
    }
}
