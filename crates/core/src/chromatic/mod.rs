//! The non-blocking chromatic tree (paper §5).
//!
//! A chromatic tree is a relaxed-balance red-black tree: colours are
//! generalized to non-negative integer *weights* (0 = red, 1 = black,
//! `w > 1` = `w − 1` *overweight violations*), and the balance conditions
//! may be violated transiently. Insertions and deletions perform one
//! localized update each (following the tree update template) and then
//! restore balance with a sequence of localized rebalancing steps that can
//! be freely interleaved with other operations.

mod audit;
mod bulk;
mod query;
mod rebalance;
pub mod stats;
mod update;

pub use audit::AuditReport;
pub use stats::Stats;

use llxscx::epoch::{Guard, Shared};
use llxscx::with_guard;

use crate::leaf_tree::{LeafTree, SearchPath};
use crate::node::Node;

/// A concurrent, non-blocking ordered dictionary backed by a chromatic tree.
///
/// All operations are linearizable and the implementation is lock-free:
/// some operation always completes in a finite number of steps, regardless
/// of the delays or failures of other threads.
///
/// The tree is *leaf-oriented*: dictionary keys live in the leaves and
/// internal nodes only route searches. At all times the height is
/// `O(k + c + log n)` where `n` is the number of keys, `c` the number of
/// in-progress insertions/deletions, and `k` the configured
/// [`allowed_violations`](Self::with_allowed_violations) threshold.
///
/// # Examples
///
/// ```
/// let tree = nbtree::ChromaticTree::new();
/// assert_eq!(tree.insert(3, "three"), None);
/// assert_eq!(tree.get(&3), Some("three"));
/// assert_eq!(tree.remove(&3), Some("three"));
/// assert_eq!(tree.get(&3), None);
/// ```
pub struct ChromaticTree<K: Send + Sync + 'static, V: Send + Sync + 'static> {
    /// The sentinels (weight 1, paper Fig. 10) and the read-side API.
    pub(crate) shell: LeafTree<K, V>,
    /// Invoke `Cleanup` only when the number of violations seen on the
    /// update's search path (plus the one it created) exceeds this bound
    /// (§5.6). `0` is the paper's plain "Chromatic"; `6` is "Chromatic6".
    pub(crate) allowed_violations: u32,
    pub(crate) stats: Stats,
}

/// The result of a search: the grandparent, parent and leaf on the search
/// path (grandparent is null when the tree is empty — the leaf's parent is
/// then `entry` itself).
pub(crate) struct SearchResult<'g, K, V> {
    pub gp: Shared<'g, Node<K, V>>,
    pub p: Shared<'g, Node<K, V>>,
    pub leaf: Shared<'g, Node<K, V>>,
    /// Violations (red-red and units of overweight) observed on the path,
    /// used by the `allowed_violations` policy.
    pub violations_seen: u32,
}

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty tree with the paper's eager rebalancing policy (an update
    /// that creates a violation cleans it up before returning).
    pub fn new() -> Self {
        Self::with_allowed_violations(0)
    }

    /// An empty tree that tolerates up to `k` violations on a search path
    /// before an update triggers `Cleanup` (§5.6). The paper's
    /// "Chromatic6" is `k = 6`; larger `k` trades search depth for fewer
    /// rebalancing steps, giving height `O(k + c + log n)`.
    pub fn with_allowed_violations(k: u32) -> Self {
        ChromaticTree {
            shell: LeafTree::new(1),
            allowed_violations: k,
            stats: Stats::new(),
        }
    }

    /// Operation counters (rebalancing steps, retries, ...). Cheap,
    /// always-on relaxed atomics; used by the benchmark harness.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The update path's search: the shell's `Search(key)`, tallying
    /// violations on the path for the `allowed_violations` policy.
    #[inline]
    pub(crate) fn search<'g>(&self, key: &K, guard: &'g Guard) -> SearchResult<'g, K, V> {
        let mut violations_seen = 0u32;
        let SearchPath { gp, p, leaf } = self.shell.search_with(key, guard, |p, l| {
            if l.weight() > 1 {
                violations_seen += l.weight() - 1;
            } else if l.weight() == 0 && p.weight() == 0 {
                violations_seen += 1;
            }
        });
        SearchResult {
            gp,
            p,
            leaf,
            violations_seen,
        }
    }

    /// Returns the value associated with `key`, if present. Plain reads
    /// only (property C3, §5.4); see [`LeafTree::get`].
    pub fn get(&self, key: &K) -> Option<V> {
        self.shell.get(key)
    }

    /// Whether the dictionary contains `key`.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shell.contains_key(key)
    }

    /// Associates `value` with `key`; returns the previously associated
    /// value, or `None` if `key` was absent. Lock-free; linearizes at the
    /// SCX of the successful attempt.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        loop {
            // One attempt per cached-guard entry: retries cross a
            // `with_guard` boundary, so a long retry storm still lets the
            // epoch advance at the repin interval.
            let attempt = with_guard(|guard| {
                let res = self.search(&key, guard);
                self.try_insert(&res, &key, &value, guard)
                    .map(|(old, viol)| (old, viol, res.violations_seen))
            });
            match attempt {
                Ok((old, created_violation, violations_seen)) => {
                    self.after_update(&key, created_violation, violations_seen);
                    return old;
                }
                Err(()) => self.stats.bump_insert_retries(),
            }
        }
    }

    /// Removes `key`; returns the value that was associated with it, or
    /// `None` if it was absent. Lock-free; linearizes at the SCX of the
    /// successful attempt (or, when the key is absent, like a query).
    pub fn remove(&self, key: &K) -> Option<V> {
        loop {
            let attempt = with_guard(|guard| {
                let res = self.search(key, guard);
                self.try_delete(&res, key, guard)
                    .map(|(old, viol)| (old, viol, res.violations_seen))
            });
            match attempt {
                Ok((old, created_violation, violations_seen)) => {
                    self.after_update(key, created_violation, violations_seen);
                    return old;
                }
                Err(()) => self.stats.bump_delete_retries(),
            }
        }
    }

    /// The `allowed_violations` policy after a committed update: clean up
    /// along `key`'s path once the update's new violation tips the count
    /// seen on its search path over the threshold.
    fn after_update(&self, key: &K, created_violation: bool, violations_seen: u32) {
        if created_violation {
            self.stats.bump_violations_created();
            if violations_seen + 1 > self.allowed_violations {
                self.cleanup(key);
            }
        }
    }

    /// Number of keys (O(n) traversal snapshot); see [`LeafTree::len`].
    pub fn len(&self) -> usize {
        self.shell.len()
    }

    /// Whether the dictionary is empty (O(1)).
    pub fn is_empty(&self) -> bool {
        self.shell.is_empty()
    }

    /// A sorted snapshot of all key/value pairs, by in-order traversal.
    /// Not atomic with respect to concurrent updates (each key's presence
    /// is individually linearizable; use [`successor`](Self::successor) for
    /// atomic adjacent-pair queries).
    pub fn collect(&self) -> Vec<(K, V)> {
        self.shell.collect()
    }
}

impl<K, V> Default for ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}
