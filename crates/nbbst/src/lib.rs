//! # Non-blocking unbalanced leaf-oriented BST
//!
//! The tree of Ellen, Fatourou, Ruppert and van Breugel (PODC 2010),
//! rebuilt with the PPoPP 2014 *tree update template*: this is the paper's
//! demonstration that the template makes such structures nearly mechanical
//! to produce. Insertion and deletion are single template instances driven
//! by the generic [`nbtree::tree_update`] runner; there is no rebalancing,
//! so the height can be Θ(n) for adversarial key orders — which is exactly
//! why it serves as an experimental baseline against the chromatic tree.
//!
//! ```
//! let t = nbbst::NbBst::new();
//! t.insert(1, "one");
//! assert_eq!(t.get(&1), Some("one"));
//! assert_eq!(t.remove(&1), Some("one"));
//! ```

#![warn(missing_docs)]

use llxscx::guard_cache::with_guard;
use nbtree::leaf_tree::{LeafTree, SearchPath};
use nbtree::node::Node;
use nbtree::{tree_update, TemplateStep};

/// A lock-free unbalanced leaf-oriented BST (ordered map).
///
/// Same sentinel layout as the chromatic tree (paper Fig. 10, held by the
/// shared [`LeafTree`] shell), same leaf-oriented updates
/// (Insert1/Insert2/Delete of Fig. 11), but no weights are maintained and
/// no rebalancing is performed.
pub struct NbBst<K: Send + Sync + 'static, V: Send + Sync + 'static> {
    shell: LeafTree<K, V>,
}

impl<K, V> NbBst<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty tree.
    pub fn new() -> Self {
        NbBst {
            shell: LeafTree::new(1),
        }
    }

    /// Value associated with `key`, using only plain reads.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shell.get(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shell.contains_key(key)
    }

    /// Inserts `key → value`; returns the previous value, if any.
    ///
    /// Driven by the generic template runner: LLX the parent, check the
    /// leaf is still its child, LLX the leaf, then a single SCX.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        loop {
            let outcome = with_guard(|guard| {
                let SearchPath { p, leaf: l, .. } = self.shell.search(&key, guard);
                tree_update(p, guard, |handles| match handles.len() {
                    1 => {
                        let hp = &handles[0];
                        if hp.left() != l && hp.right() != l {
                            return TemplateStep::Abort;
                        }
                        TemplateStep::Llx(l)
                    }
                    2 => {
                        let hp = &handles[0];
                        let hl = &handles[1];
                        let dir = if hp.left() == l { 0 } else { 1 };
                        let leaf = hl.node_ref();
                        if leaf.key_eq(&key) {
                            // Replacement (Insert2): R = {leaf}.
                            let old = leaf.value().cloned();
                            let new = Node::leaf(Some(key.clone()), Some(value.clone()), 1)
                                .into_shared(guard);
                            TemplateStep::Scx {
                                finalize: 0b10,
                                fld_record: 0,
                                fld_idx: dir,
                                new,
                                created: vec![new],
                                result: old,
                            }
                        } else {
                            // Insert1: new internal, old leaf reused (R = ∅).
                            let new_leaf = Node::leaf(Some(key.clone()), Some(value.clone()), 1)
                                .into_shared(guard);
                            let new = if leaf.route_left(&key) {
                                Node::internal(leaf.key().cloned(), 1, new_leaf, l)
                            } else {
                                Node::internal(Some(key.clone()), 1, l, new_leaf)
                            }
                            .into_shared(guard);
                            TemplateStep::Scx {
                                finalize: 0,
                                fld_record: 0,
                                fld_idx: dir,
                                new,
                                created: vec![new_leaf, new],
                                result: None,
                            }
                        }
                    }
                    _ => unreachable!("template sequence for insert has length 2"),
                })
            });
            if let Ok(old) = outcome {
                return old;
            }
        }
    }

    /// Removes `key`; returns its value, if it was present.
    pub fn remove(&self, key: &K) -> Option<V> {
        loop {
            let done = with_guard(|guard| {
                let SearchPath { gp, p, leaf: l } = self.shell.search(key, guard);
                // SAFETY: `search` always lands on a leaf: non-null, alive under `guard`.
                if !unsafe { l.deref() }.key_eq(key) {
                    return Some(None); // linearizes like a query
                }
                if gp.is_null() {
                    return Some(None); // empty tree shape: only the ∞ leaf
                }
                let outcome = tree_update(gp, guard, |handles| match handles.len() {
                    1 => {
                        let hgp = &handles[0];
                        if hgp.left() != p && hgp.right() != p {
                            return TemplateStep::Abort;
                        }
                        TemplateStep::Llx(p)
                    }
                    2 => {
                        let hp = &handles[1];
                        if hp.left() != l && hp.right() != l {
                            return TemplateStep::Abort;
                        }
                        TemplateStep::Llx(l)
                    }
                    3 => {
                        let hp = &handles[1];
                        let sib = if hp.left() == l {
                            hp.right()
                        } else {
                            hp.left()
                        };
                        TemplateStep::Llx(sib)
                    }
                    4 => {
                        let hgp = &handles[0];
                        let hl = &handles[2];
                        let hs = &handles[3];
                        let dir = if hgp.left() == p { 0 } else { 1 };
                        let s_ref = hs.node_ref();
                        // Fresh copy of the sibling replaces the parent.
                        let new = if s_ref.is_leaf(guard) {
                            Node::leaf(s_ref.key().cloned(), s_ref.value().cloned(), 1)
                        } else {
                            Node::internal(s_ref.key().cloned(), 1, hs.left(), hs.right())
                        }
                        .into_shared(guard);
                        TemplateStep::Scx {
                            finalize: 0b1110, // {p, l, s}
                            fld_record: 0,
                            fld_idx: dir,
                            new,
                            created: vec![new],
                            result: hl.node_ref().value().cloned(),
                        }
                    }
                    _ => unreachable!("template sequence for delete has length 4"),
                });
                // Ok(old) ⇒ done (Some), SCX failure ⇒ retry (None); the
                // early returns above are "done with None" in the same
                // encoding.
                outcome.ok()
            });
            if let Some(old) = done {
                return old;
            }
        }
    }

    /// All pairs with keys in `bounds`, sorted — an atomic snapshot,
    /// VLX-validated by the shared scan of [`nbtree::range`].
    pub fn range<B: std::ops::RangeBounds<K>>(&self, bounds: B) -> Vec<(K, V)> {
        self.shell.range_with(bounds, || {})
    }

    /// Number of keys (O(n) traversal snapshot).
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
}

impl<K, V> Default for NbBst<K, V>
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
        let t = NbBst::new();
        assert_eq!(t.get(&1), None);
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
        let mut rng = StdRng::seed_from_u64(7);
        let t = NbBst::new();
        let mut model = BTreeMap::new();
        for step in 0..5000u64 {
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
        let mut rng = StdRng::seed_from_u64(11);
        let t = NbBst::new();
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
    fn concurrent_stripes() {
        use std::sync::Arc;
        let t = Arc::new(NbBst::new());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = Arc::clone(&t);
                s.spawn(move || {
                    let base = tid * 1000;
                    for i in 0..1000 {
                        t.insert(base + i, i);
                    }
                    for i in (0..1000).step_by(2) {
                        assert_eq!(t.remove(&(base + i)), Some(i));
                    }
                });
            }
        });
        assert_eq!(t.len(), 4 * 500);
    }
}
