//! The shell shared by every leaf-oriented template tree.
//!
//! The chromatic tree, `nbbst` and `ravl` all store [`Node`]s under the
//! same two-sentinel scheme (paper Fig. 10): a never-removed `entry` node
//! with key `∞` whose left child is either a single `∞` leaf (empty
//! dictionary) or a second `∞` sentinel with the dictionary hanging off its
//! left subtree. Everything that is not an update step — construction, the
//! pure-read search, point reads, the VLX-validated range retry loop,
//! snapshots and teardown — depends only on that layout, so it lives here
//! once and each tree keeps only its own insert/remove/rebalancing code.

use std::ops::RangeBounds;
use std::sync::atomic::Ordering;

use llxscx::epoch::{Atomic, Guard, Shared};
use llxscx::with_guard;

use crate::node::Node;
use crate::range::try_range_scan;

/// The last three nodes on a search path: grandparent, parent and leaf.
/// `gp` is null when the leaf's parent is `entry` itself (Fig. 10(a)).
pub struct SearchPath<'g, K, V> {
    /// The leaf's grandparent (null when `p` is `entry`).
    pub gp: Shared<'g, Node<K, V>>,
    /// The leaf's parent.
    pub p: Shared<'g, Node<K, V>>,
    /// The leaf the search for the key ended at; never null.
    pub leaf: Shared<'g, Node<K, V>>,
}

/// A leaf-oriented tree of [`Node`]s rooted at the `entry` sentinel.
///
/// The tree types embed one and forward their read-side API to it:
///
/// ```
/// use nbtree::leaf_tree::LeafTree;
///
/// let t = LeafTree::<u64, u64>::new(1);
/// assert!(t.is_empty());
/// assert_eq!(t.get(&3), None);
/// assert_eq!(t.range_with(.., || {}), vec![]);
/// ```
pub struct LeafTree<K: Send + Sync + 'static, V: Send + Sync + 'static> {
    /// Written only at construction; its left child is the second sentinel
    /// (or, when the dictionary is empty, a single `∞` leaf) and its right
    /// child is unused.
    entry: Atomic<Node<K, V>>,
}

// SAFETY: all shared mutable state is accessed through atomics/epoch guards;
// the `K`/`V: Send + Sync` bounds cover the payloads.
unsafe impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Send for LeafTree<K, V> {}
// SAFETY: same argument as `Send`.
unsafe impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Sync for LeafTree<K, V> {}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> LeafTree<K, V> {
    /// The `entry` sentinel.
    ///
    /// Memory-ordering audit: `Acquire` — the entry pointer is written once
    /// at construction and never changes; the acquiring load only needs to
    /// see the sentinel nodes' initialization (release-published when the
    /// tree was handed to other threads), same argument as
    /// [`Node::read_child`].
    #[inline]
    pub fn entry<'g>(&self, guard: &'g Guard) -> Shared<'g, Node<K, V>> {
        self.entry.load(Ordering::Acquire, guard)
    }
}

impl<K, V> LeafTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty tree (Fig. 10(a)): `entry(∞)` with a single `∞` leaf as its
    /// left child, both carrying `sentinel_weight`.
    pub fn new(sentinel_weight: u32) -> Self {
        // SAFETY: construction — the tree is not yet shared with any thread.
        let guard = unsafe { llxscx::epoch::unprotected() };
        let leaf = Node::leaf(None, None, sentinel_weight).into_shared(guard);
        let entry = Node::internal(None, sentinel_weight, leaf, Shared::null());
        LeafTree {
            entry: Atomic::from(entry),
        }
    }

    /// The paper's `Search(key)` (Fig. 5): pure reads from `entry` down to a
    /// leaf, remembering the last three nodes. `visit(parent, child)` runs
    /// on every step, the final leaf included, so a tree can inspect its
    /// search path (the chromatic tree tallies violations) without a second
    /// walk.
    ///
    /// `#[inline]`: this loop is the whole read path and most of every
    /// update path; inlining it (and the visitor) into each caller lets the
    /// compiler keep the probe key and the path pointers in registers and
    /// drop a no-op visitor entirely.
    #[inline]
    pub fn search_with<'g>(
        &self,
        key: &K,
        guard: &'g Guard,
        mut visit: impl FnMut(&Node<K, V>, &Node<K, V>),
    ) -> SearchPath<'g, K, V> {
        let mut gp = Shared::null();
        let mut p = self.entry(guard);
        // SAFETY: entry is never removed.
        let mut leaf = unsafe { p.deref() }.read_child(0, guard);
        loop {
            // SAFETY: reached by child pointers under `guard` (property C3);
            // children of internal nodes are never null.
            let leaf_ref = unsafe { leaf.deref() };
            // SAFETY: `p` was `leaf`'s parent on this search path; same
            // liveness argument as `leaf`.
            visit(unsafe { p.deref() }, leaf_ref);
            if leaf_ref.is_leaf(guard) {
                return SearchPath { gp, p, leaf };
            }
            gp = p;
            p = leaf;
            let dir = if leaf_ref.route_left(key) { 0 } else { 1 };
            leaf = leaf_ref.read_child(dir, guard);
        }
    }

    /// [`search_with`](Self::search_with) without a visitor.
    #[inline]
    pub fn search<'g>(&self, key: &K, guard: &'g Guard) -> SearchPath<'g, K, V> {
        self.search_with(key, guard, |_, _| {})
    }

    /// The leaf a search for `key` ends at, if it holds `key`.
    #[inline]
    fn find<R>(&self, key: &K, read: impl FnOnce(&Node<K, V>) -> R) -> Option<R> {
        with_guard(|guard| {
            // SAFETY: `search` always lands on a leaf: non-null, alive under `guard`.
            let leaf = unsafe { self.search(key, guard).leaf.deref() };
            leaf.key_eq(key).then(|| read(leaf))
        })
    }

    /// Returns the value associated with `key`, if present.
    ///
    /// Uses only plain reads (no LLX), exactly like a sequential BST search;
    /// correctness under concurrency is the paper's property C3 (§5.4).
    /// Runs under the amortized cached guard ([`llxscx::with_guard`]), so
    /// the epoch pin costs a thread-local re-entry rather than global
    /// atomics — the paper's "searches perform no synchronization" design.
    pub fn get(&self, key: &K) -> Option<V> {
        self.find(key, |leaf| leaf.value().cloned()).flatten()
    }

    /// Whether the dictionary contains `key` (no value is cloned).
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key, |_| ()).is_some()
    }

    /// Calls `f` on every leaf, sentinels included, in key order. Iterative:
    /// an unbalanced `nbbst` can be Θ(n) deep.
    fn for_each_leaf(&self, mut f: impl FnMut(&Node<K, V>)) {
        with_guard(|guard| {
            let mut stack = vec![self.entry(guard)];
            while let Some(n) = stack.pop() {
                if n.is_null() {
                    continue; // the entry sentinel's unused right child
                }
                // SAFETY: reached from entry under `guard`.
                let node = unsafe { n.deref() };
                if node.is_leaf(guard) {
                    f(node);
                } else {
                    stack.push(node.read_child(1, guard));
                    stack.push(node.read_child(0, guard));
                }
            }
        })
    }

    /// Number of keys. Takes a traversal snapshot (O(n)); not linearizable
    /// with respect to concurrent updates, like size in most concurrent maps.
    pub fn len(&self) -> usize {
        let mut count = 0;
        self.for_each_leaf(|leaf| count += usize::from(!leaf.is_sentinel_key()));
        count
    }

    /// Whether the dictionary is empty: O(1), one read of the entry's left
    /// child, which is a leaf exactly in the empty shape of Fig. 10(a).
    pub fn is_empty(&self) -> bool {
        with_guard(|guard| {
            // SAFETY: the entry sentinel is never reclaimed.
            let entry = unsafe { self.entry(guard).deref() };
            // SAFETY: the entry is internal, so its left child is non-null (C2).
            unsafe { entry.read_child(0, guard).deref() }.is_leaf(guard)
        })
    }

    /// A sorted snapshot of all key/value pairs, by in-order traversal.
    /// Not atomic with respect to concurrent updates (each key's presence
    /// is individually linearizable); `range(..)` is the atomic snapshot.
    pub fn collect(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.for_each_leaf(|leaf| {
            if let (Some(k), Some(v)) = (leaf.key(), leaf.value()) {
                out.push((k.clone(), v.clone()));
            }
        });
        out
    }

    /// All pairs with keys in `bounds`, sorted — an atomic snapshot taken by
    /// the VLX-validated scan of [`crate::range`], retried until one attempt
    /// validates. `on_retry` runs after every failed attempt.
    pub fn range_with<B: RangeBounds<K>>(&self, bounds: B, on_retry: impl FnMut()) -> Vec<(K, V)> {
        self.range_attempts(&bounds, usize::MAX, on_retry)
            .expect("usize::MAX range attempts cannot all fail")
    }

    /// Like [`range_with`](Self::range_with) but gives up after `attempts`
    /// failed validations, returning `None`.
    ///
    /// Lock-free: an attempt only fails because a concurrent SCX committed
    /// (or was helped to a terminal state). Each attempt runs in its own
    /// cached-guard entry, like the update paths, so a retry storm still
    /// lets the epoch advance at repin intervals.
    pub fn range_attempts<B: RangeBounds<K>>(
        &self,
        bounds: &B,
        attempts: usize,
        mut on_retry: impl FnMut(),
    ) -> Option<Vec<(K, V)>> {
        for _ in 0..attempts {
            if let Some(out) = with_guard(|guard| try_range_scan(self.entry(guard), bounds, guard))
            {
                return Some(out);
            }
            on_retry();
        }
        None
    }
}

impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Drop for LeafTree<K, V> {
    fn drop(&mut self) {
        // Exclusive access: free every node still in the tree. Descriptors
        // are released transitively by their reference counts.
        // SAFETY: exclusive `&mut self` in Drop — no concurrent readers, so the
        // unprotected guard is sound.
        let guard = unsafe { llxscx::epoch::unprotected() };
        let mut stack = vec![self.entry(guard)];
        while let Some(n) = stack.pop() {
            if n.is_null() {
                continue;
            }
            // SAFETY: exclusive access; every node reachable exactly once
            // (down-tree, indegree 1).
            unsafe {
                let node = n.deref();
                stack.push(node.read_child(0, guard));
                stack.push(node.read_child(1, guard));
                llxscx::reclaim::dispose_record(n.as_raw());
            }
        }
    }
}
