//! Sorted-bulk updates: shared search-path prefixes, same-leaf run
//! merging, chunked pins.
//!
//! [`ChromaticTree::insert_bulk`] and [`ChromaticTree::remove_bulk`] are
//! the tree-level half of the suite's batch story (the sharded façade's
//! shard grouping is the other half). Both sort the batch and apply it in
//! ascending key order, so consecutive keys usually land in nearby leaves
//! — and instead of re-searching from the entry sentinel for every key,
//! they **cache the search path** of the previous update and restart the
//! descent from the deepest cached ancestor whose subtree can still
//! contain the next key. For a batch of `n` uniform keys over a tree of
//! `N` keys that cuts the per-key search from `log N` hops to roughly
//! `log(N/n)` fresh hops plus a shared prefix. Epoch pins are weighted
//! ([`llxscx::guard_cache::with_guard_weighted`]) and taken **per
//! repin-interval chunk**, not per batch: a batch-long pin delays every
//! retirement to the batch boundary, and the resulting garbage wave
//! measurably cost more than the pins it saved.
//!
//! # Run merging: one SCX per same-leaf run
//!
//! The SCX template replaces an arbitrary connected subgraph atomically,
//! so a *maximal run* of sorted keys that all route to one leaf does not
//! need one SCX per key. `insert_bulk` detects such runs during the
//! cached-path descent — every batch key smaller than the reached leaf's
//! exclusive window bound lands in that leaf — and installs the whole run
//! with a single LLX/SCX over the same `⟨p, l⟩` section a point insert
//! freezes ([`ChromaticTree::try_insert_run`]): the run plus the old
//! leaf's payload is rebuilt off-line as a balanced mini-subtree whose
//! root takes the Insert1 weight `l.w − 1`, whose internals are weight 0
//! and whose leaves are fresh weight-1 leaves. Every path through the new
//! section then sums to the old leaf's weight regardless of depth, so the
//! equal-weighted-path-sums invariant holds *by construction* and the
//! Fig. 11 rebalancing steps apply unchanged; the only violations the
//! install can create are red-red edges among the fresh weight-0
//! internals, handled by the ordinary `allowed_violations` policy. A run
//! of length 1, or any run whose SCX loses to a concurrent update, falls
//! back to the per-element path.
//!
//! `remove_bulk` merges symmetrically at pair granularity: when the
//! current key's leaf and its right sibling hold two *consecutive* batch
//! keys, both deletions collapse into one SCX that contracts the shared
//! parent's whole subtree ([`ChromaticTree::try_delete_pair`]) — the
//! weight the contraction produces (`gp.w + c.w`) is exactly what the
//! second of two sequential deletes would leave, because the intermediate
//! sibling copy is itself deleted and its weight never surfaces.
//!
//! # Why restarting from a cached ancestor is safe
//!
//! The paper's searches may traverse nodes that a concurrent update has
//! already removed; correctness comes from the update validating its
//! section with LLX before the SCX ([`try_insert`] re-checks that the
//! parent is unfinalized and the leaf is still its child). Restarting a
//! descent below the root adds one proof obligation: the cached ancestor
//! must still be a correct starting point *for the new key*. That holds
//! because in these leaf-oriented template trees a surviving node's
//! feasible key interval (its *window*) *never shrinks*:
//!
//! * an insertion splits a leaf into fresh nodes — surviving windows are
//!   untouched;
//! * a deletion replaces the sibling with a copy whose window absorbs the
//!   deleted leaf's interval — windows only widen;
//! * every Fig. 11 rebalancing step is a local restructuring that
//!   preserves the in-order partition of the untouched subtrees.
//!
//! During descent we track each path node's *upper* window bound as
//! implied by the routing keys actually followed (keys ascend, so the
//! lower bound needs no tracking: the next key is ≥ the previous one,
//! which the cached prefix already admitted). When the next key is below
//! the cached bound of a node, the key was inside that node's window at
//! the moment the path traversed it, hence inside every later window of
//! that node while it remains in the tree. The descent below it then
//! follows current child pointers exactly like a root search, and the
//! final LLX/SCX validation in [`try_insert`] rejects any placement whose
//! parent left the tree in the meantime — on such a failure the cache is
//! discarded and the key retries from the entry sentinel, exactly like a
//! point insert's retry.
//!
//! [`try_insert`]: ChromaticTree::insert

use llxscx::epoch::Shared;

use super::{ChromaticTree, SearchResult};
use crate::node::Node;

/// One cached step of the previous descent: the node and the exclusive
/// upper bound of its window as implied by the routing keys followed to
/// reach it (`None` = `∞`). References stay valid for the whole bulk call
/// because the epoch guard is held across it.
struct PathEntry<'g, K: Send + Sync + 'static, V: Send + Sync + 'static> {
    node: Shared<'g, Node<K, V>>,
    hi: Option<&'g K>,
}

// Manual impls: `derive` would demand `K: Clone`/`V: Clone` on the entry
// itself, which the `Shared`/reference pair does not need.
impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Clone for PathEntry<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K: Send + Sync + 'static, V: Send + Sync + 'static> Copy for PathEntry<'_, K, V> {}

impl<K, V> ChromaticTree<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Inserts a whole batch, returning the displaced value per element
    /// in **input order**.
    ///
    /// The batch is stably key-sorted (a no-op for pre-sorted input, as
    /// delivered by the sharded façade) and applied in ascending key
    /// order under chunked weighted epoch pins, with the search-path
    /// prefix shared between consecutive keys (see module docs). Semantics
    /// match sequential input-order application: each element linearizes
    /// individually (a batch is not a transaction — concurrent readers
    /// can observe it partially applied, in key order), and elements with
    /// equal keys keep their batch order, so the last duplicate wins.
    ///
    /// This is the implementation behind the chromatic registry entries'
    /// trait-level `insert_batch` override and, transitively, behind each
    /// per-shard group of the sharded façade's `insert_batch`.
    ///
    /// ```
    /// let tree = nbtree::ChromaticTree::new();
    /// tree.insert(20, "old");
    /// let displaced = tree.insert_bulk(&[(10, "a"), (20, "b"), (10, "c")]);
    /// // Input-order results: 10 was absent, 20 held "old", 10 then held "a".
    /// assert_eq!(displaced, vec![None, Some("old"), Some("a")]);
    /// assert_eq!(tree.get(&10), Some("c"), "last duplicate wins");
    /// ```
    pub fn insert_bulk(&self, pairs: &[(K, V)]) -> Vec<Option<V>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        assert!(
            pairs.len() <= u32::MAX as usize,
            "bulk batches are limited to u32::MAX elements"
        );
        // Already-sorted batches (the common case: the sharded façade
        // pre-sorts every per-shard group by key) skip the sort buffer
        // entirely — input order IS key order, duplicates included, and
        // the chunk loop below walks `0..n` directly with no index
        // buffer at all. The probe early-exits on the first inversion,
        // so unsorted inputs pay a couple of comparisons.
        //
        // Otherwise sort a contiguous (key, index) buffer rather than
        // indices with an indirect comparator (two random reads per
        // comparison was visible at batch 512). The index tiebreaker
        // keeps duplicate keys in input order under the unstable sort,
        // which is what makes "apply in key order" indistinguishable
        // (result-wise) from input-order application.
        let presorted = pairs.windows(2).all(|w| w[0].0 <= w[1].0);
        let sorted_order: Option<Vec<u32>> = if presorted {
            None
        } else {
            let mut keyed: Vec<(K, u32)> = pairs
                .iter()
                .enumerate()
                .map(|(i, (k, _))| (k.clone(), i as u32))
                .collect();
            keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            Some(keyed.into_iter().map(|(_, i)| i).collect())
        };
        let index_of = |j: usize| sorted_order.as_ref().map_or(j, |order| order[j] as usize);
        let mut out: Vec<Option<V>> = vec![None; pairs.len()];
        // One pin per repin-interval-sized chunk, not per batch: a pin
        // spanning hundreds of updates delays every retirement to the
        // batch boundary, and the resulting garbage wave (hundreds of
        // nodes re-entering the allocator cold) measurably outweighed the
        // saved pin traffic at batch 512. Chunking keeps the reclamation
        // cadence identical to the point path; only the first key of each
        // chunk pays a full root descent (the path cache cannot outlive
        // its guard).
        let repin = llxscx::guard_cache::REPIN_OPS as usize;
        let mut chunk_start = 0;
        while chunk_start < pairs.len() {
            let chunk_end = (chunk_start + repin).min(pairs.len());
            let weight = (chunk_end - chunk_start) as u32;
            llxscx::guard_cache::with_guard_weighted(weight, |guard| {
                // The cached path: entry sentinel first, deepest node last.
                // Every entry is an internal node; `hi` is the exclusive
                // upper bound its subtree admitted when the path traversed
                // it.
                let mut path: Vec<PathEntry<'_, K, V>> = Vec::with_capacity(32);
                path.push(PathEntry {
                    node: self.shell.entry(guard),
                    hi: None,
                });
                // Elements below `fallback_until` skip run merging: after a
                // merged install loses its SCX, the whole run retries
                // per-element (the ISSUE's fallback rule) — contention that
                // beat the big install once is likely to beat it again, and
                // the per-element path makes progress one key at a time.
                let mut fallback_until = chunk_start;
                let mut j = chunk_start;
                while j < chunk_end {
                    let i = index_of(j);
                    let (key, value) = &pairs[i];
                    let advance = loop {
                        // Drop cached ancestors whose window cannot contain
                        // `key` (keys ascend, so only the upper bound can be
                        // violated). The entry sentinel (`hi == None`) always
                        // survives.
                        while let Some(top) = path.last() {
                            match top.hi {
                                Some(hi) if hi <= key => path.pop(),
                                _ => break,
                            };
                        }
                        debug_assert!(!path.is_empty(), "entry sentinel popped");
                        // Fresh descent from the deepest surviving ancestor,
                        // tallying violations along the traversed suffix for
                        // the `allowed_violations` policy (an undercount
                        // relative to a full root walk — it can only defer a
                        // Cleanup, never skip a necessary one: with `k = 0`
                        // any created violation still triggers it). The loop
                        // mirrors `search`'s register discipline — the current
                        // node and its deref are loop-carried locals, the path
                        // vector is only appended to — so the shared-prefix
                        // saving is not spent on stack traffic.
                        let mut violations = 0u32;
                        let mut top = *path.last().expect("path holds at least entry");
                        // SAFETY: reached from entry under `guard` (property
                        // C3); see module docs for the cached-prefix argument.
                        let mut top_ref = unsafe { top.node.deref() };
                        let mut gp = if path.len() >= 2 {
                            path[path.len() - 2].node
                        } else {
                            Shared::null()
                        };
                        let (p, leaf, leaf_hi) = loop {
                            let dir = if top_ref.route_left(key) { 0 } else { 1 };
                            let child_hi = if dir == 0 { top_ref.key() } else { top.hi };
                            let child = top_ref.read_child(dir, guard);
                            // SAFETY: as above; the entry sentinel's null right
                            // child is unreachable (its ∞ key routes left).
                            let child_ref = unsafe { child.deref() };
                            if child_ref.weight() > 1 {
                                violations += child_ref.weight() - 1;
                            } else if child_ref.weight() == 0 && top_ref.weight() == 0 {
                                violations += 1;
                            }
                            if child_ref.is_leaf(guard) {
                                break (top.node, child, child_hi);
                            }
                            gp = top.node;
                            top = PathEntry {
                                node: child,
                                hi: child_hi,
                            };
                            top_ref = child_ref;
                            path.push(top);
                        };
                        let res = SearchResult {
                            gp,
                            p,
                            leaf,
                            violations_seen: violations,
                        };
                        // Run detection: every later batch key below the
                        // leaf's exclusive window bound routes to this same
                        // leaf (the window argument of the module docs —
                        // keys ascend, so the lower bound is already
                        // admitted). Runs never cross the chunk boundary:
                        // the path cache cannot outlive its pin, and neither
                        // should a frozen section.
                        let mut m = j + 1;
                        if j >= fallback_until {
                            while m < chunk_end {
                                let (k2, _) = &pairs[index_of(m)];
                                if !crate::node::probe_lt_key(k2, leaf_hi) {
                                    break;
                                }
                                m += 1;
                            }
                        }
                        if m - j >= 2 {
                            // Dedup the run in place: positions are sorted
                            // with duplicates in batch order, so keeping the
                            // last value per key is last-duplicate-wins.
                            let mut run_items: Vec<(&K, &V)> = Vec::with_capacity(m - j);
                            for t in j..m {
                                let (k, v) = &pairs[index_of(t)];
                                match run_items.last_mut() {
                                    Some(last) if last.0 == k => last.1 = v,
                                    _ => run_items.push((k, v)),
                                }
                            }
                            match self.try_insert_run(&res, &run_items, guard) {
                                Ok(red_reds) => {
                                    // Displaced values, computed from the
                                    // replaced leaf's immutable payload: the
                                    // first occurrence of a key displaces the
                                    // leaf's value (if it held that key),
                                    // later duplicates displace the previous
                                    // occurrence.
                                    // SAFETY: content reads; see module docs.
                                    let leaf_ref = unsafe { leaf.deref() };
                                    let mut prev: Option<(&K, &V)> = None;
                                    for t in j..m {
                                        let it = index_of(t);
                                        let (k, v) = &pairs[it];
                                        out[it] = match prev {
                                            Some((pk, pv)) if pk == k => Some(pv.clone()),
                                            _ if leaf_ref.key_eq(k) => leaf_ref.value().cloned(),
                                            _ => None,
                                        };
                                        prev = Some((k, v));
                                    }
                                    self.stats.bump_merged_insert((m - j) as u64);
                                    if red_reds > 0 {
                                        self.stats.bump_violations_created();
                                        if violations + red_reds > self.allowed_violations {
                                            // Each created red-red lies on the
                                            // path to at least one run key, so
                                            // cleaning every distinct run key
                                            // restores the eager guarantee.
                                            for (k, _) in &run_items {
                                                self.cleanup(k);
                                            }
                                            path.truncate(1);
                                        }
                                    }
                                    break m - j;
                                }
                                Err(()) => {
                                    // The merged SCX lost: fall back to
                                    // per-element inserts for this run.
                                    self.stats.bump_insert_retries();
                                    fallback_until = m;
                                    path.truncate(1);
                                    continue;
                                }
                            }
                        }
                        match self.try_insert(&res, key, value, guard) {
                            Ok((old, created_violation)) => {
                                out[i] = old;
                                if created_violation {
                                    self.stats.bump_violations_created();
                                    if violations + 1 > self.allowed_violations {
                                        // Cleanup restructures arbitrarily; the
                                        // cached prefix stays sound (windows
                                        // only widen; stale nodes fail their
                                        // LLX), but re-validate conservatively
                                        // by restarting the next descent from
                                        // the entry sentinel.
                                        self.cleanup(key);
                                        path.truncate(1);
                                    }
                                }
                                break 1;
                            }
                            Err(()) => {
                                // Concurrent interference: discard the cache
                                // and retry this key from the entry sentinel,
                                // like a point insert.
                                self.stats.bump_insert_retries();
                                path.truncate(1);
                            }
                        }
                    };
                    j += advance;
                }
            });
            chunk_start = chunk_end;
        }
        out
    }

    /// Removes a whole batch of keys, returning the removed value per key
    /// in **input order** — the symmetric path to
    /// [`insert_bulk`](Self::insert_bulk).
    ///
    /// The batch is stably key-sorted and applied in ascending key order
    /// under chunked weighted epoch pins with the cached-path descent of
    /// the module docs. When two *consecutive* batch keys turn out to live
    /// in sibling leaves, both deletions collapse into one SCX that
    /// contracts the shared parent's subtree (`try_delete_pair`; see the
    /// module docs);
    /// otherwise each key deletes exactly like a point remove. Semantics
    /// match sequential input-order application: each element linearizes
    /// individually and duplicate keys behave as if removed one at a time
    /// (the first duplicate wins, the rest observe the key absent).
    ///
    /// ```
    /// let tree = nbtree::ChromaticTree::new();
    /// tree.insert_bulk(&[(1, "a"), (2, "b"), (3, "c")]);
    /// let removed = tree.remove_bulk(&[2, 9, 2, 1]);
    /// assert_eq!(removed, vec![Some("b"), None, None, Some("a")]);
    /// assert_eq!(tree.collect(), vec![(3, "c")]);
    /// ```
    pub fn remove_bulk(&self, keys: &[K]) -> Vec<Option<V>> {
        if keys.is_empty() {
            return Vec::new();
        }
        assert!(
            keys.len() <= u32::MAX as usize,
            "bulk batches are limited to u32::MAX elements"
        );
        let presorted = keys.windows(2).all(|w| w[0] <= w[1]);
        let sorted_order: Option<Vec<u32>> = if presorted {
            None
        } else {
            let mut keyed: Vec<(K, u32)> = keys
                .iter()
                .enumerate()
                .map(|(i, k)| (k.clone(), i as u32))
                .collect();
            keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            Some(keyed.into_iter().map(|(_, i)| i).collect())
        };
        let index_of = |j: usize| sorted_order.as_ref().map_or(j, |order| order[j] as usize);
        let mut out: Vec<Option<V>> = vec![None; keys.len()];
        let repin = llxscx::guard_cache::REPIN_OPS as usize;
        let mut chunk_start = 0;
        while chunk_start < keys.len() {
            let chunk_end = (chunk_start + repin).min(keys.len());
            let weight = (chunk_end - chunk_start) as u32;
            llxscx::guard_cache::with_guard_weighted(weight, |guard| {
                let mut path: Vec<PathEntry<'_, K, V>> = Vec::with_capacity(32);
                path.push(PathEntry {
                    node: self.shell.entry(guard),
                    hi: None,
                });
                // As in `insert_bulk`: after a merged SCX loses, the pair
                // retries per-element.
                let mut fallback_until = chunk_start;
                let mut j = chunk_start;
                while j < chunk_end {
                    let i = index_of(j);
                    let key = &keys[i];
                    let advance = loop {
                        while let Some(top) = path.last() {
                            match top.hi {
                                Some(hi) if hi <= key => path.pop(),
                                _ => break,
                            };
                        }
                        debug_assert!(!path.is_empty(), "entry sentinel popped");
                        let mut violations = 0u32;
                        let mut top = *path.last().expect("path holds at least entry");
                        // SAFETY: reached from entry under `guard` (property
                        // C3); see module docs for the cached-prefix argument.
                        let mut top_ref = unsafe { top.node.deref() };
                        let mut gp = if path.len() >= 2 {
                            path[path.len() - 2].node
                        } else {
                            Shared::null()
                        };
                        let (p, leaf) = loop {
                            let dir = if top_ref.route_left(key) { 0 } else { 1 };
                            let child_hi = if dir == 0 { top_ref.key() } else { top.hi };
                            let child = top_ref.read_child(dir, guard);
                            // SAFETY: as above.
                            let child_ref = unsafe { child.deref() };
                            if child_ref.weight() > 1 {
                                violations += child_ref.weight() - 1;
                            } else if child_ref.weight() == 0 && top_ref.weight() == 0 {
                                violations += 1;
                            }
                            if child_ref.is_leaf(guard) {
                                break (top.node, child);
                            }
                            gp = top.node;
                            top = PathEntry {
                                node: child,
                                hi: child_hi,
                            };
                            top_ref = child_ref;
                            path.push(top);
                        };
                        // SAFETY: content reads of an immutable payload.
                        let leaf_ref = unsafe { leaf.deref() };
                        if gp.is_null() || !leaf_ref.key_eq(key) {
                            // Absent key (or empty tree): linearizes like a
                            // query, nothing to do.
                            break 1;
                        }
                        // Pair merging: the next batch key must be distinct,
                        // inside this chunk, and sitting in the right
                        // sibling leaf; the contraction also needs a real
                        // great-grandparent in the cached path (`path` ends
                        // at `p`, so `len ≥ 3` means entry…ggp, gp, p).
                        if j >= fallback_until && j + 1 < chunk_end && path.len() >= 3 {
                            let i2 = index_of(j + 1);
                            let key2 = &keys[i2];
                            // SAFETY: as above.
                            let p_ref = unsafe { p.deref() };
                            let sib = p_ref.read_child(1, guard);
                            let sib_ok = key2 != key && p_ref.read_child(0, guard) == leaf && {
                                // SAFETY: as above.
                                let sib_ref = unsafe { sib.deref() };
                                sib_ref.is_leaf(guard) && sib_ref.key_eq(key2)
                            };
                            if sib_ok {
                                let ggp = path[path.len() - 3].node;
                                match self.try_delete_pair(ggp, gp, p, leaf, key2, guard) {
                                    Ok((old1, old2, created_violation)) => {
                                        out[i] = old1;
                                        out[i2] = old2;
                                        self.stats.bump_merged_remove_scxs();
                                        // `p` and `gp` are finalized: drop
                                        // them from the cache so the next
                                        // descent restarts at `ggp`.
                                        path.pop();
                                        path.pop();
                                        if created_violation {
                                            self.stats.bump_violations_created();
                                            if violations + 1 > self.allowed_violations {
                                                self.cleanup(key);
                                                path.truncate(1);
                                            }
                                        }
                                        break 2;
                                    }
                                    Err(()) => {
                                        self.stats.bump_delete_retries();
                                        fallback_until = j + 2;
                                        path.truncate(1);
                                        continue;
                                    }
                                }
                            }
                        }
                        let res = SearchResult {
                            gp,
                            p,
                            leaf,
                            violations_seen: violations,
                        };
                        match self.try_delete(&res, key, guard) {
                            Ok((old, created_violation)) => {
                                if old.is_some() {
                                    // The SCX finalized `p`: drop it from the
                                    // cache (its replacement hangs off `gp`).
                                    path.pop();
                                }
                                out[i] = old;
                                if created_violation {
                                    self.stats.bump_violations_created();
                                    if violations + 1 > self.allowed_violations {
                                        self.cleanup(key);
                                        path.truncate(1);
                                    }
                                }
                                break 1;
                            }
                            Err(()) => {
                                self.stats.bump_delete_retries();
                                path.truncate(1);
                            }
                        }
                    };
                    j += advance;
                }
            });
            chunk_start = chunk_end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bulk_is_a_noop() {
        let t = ChromaticTree::<u64, u64>::new();
        assert_eq!(t.insert_bulk(&[]), Vec::<Option<u64>>::new());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn bulk_matches_sequential_application() {
        let t = ChromaticTree::new();
        t.insert(5u64, 50u64);
        let batch = vec![(3, 30), (5, 51), (9, 90), (3, 31), (7, 70)];
        let got = t.insert_bulk(&batch);
        // Sequential input-order application over {5: 50}.
        assert_eq!(got, vec![None, Some(50), None, Some(30), None]);
        assert_eq!(
            t.collect(),
            vec![(3, 31), (5, 51), (7, 70), (9, 90)],
            "last duplicate wins, all keys present"
        );
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn descending_and_random_input_orders_agree() {
        // The batch is sorted internally, so input order must not matter
        // for distinct keys.
        let asc = ChromaticTree::new();
        let desc = ChromaticTree::new();
        let keys: Vec<(u64, u64)> = (0..500u64).map(|k| (k * 7 % 501, k)).collect();
        let mut rev = keys.clone();
        rev.reverse();
        asc.insert_bulk(&keys);
        desc.insert_bulk(&rev);
        // Reversal also reverses duplicate resolution; with this key
        // pattern all keys are distinct, so contents must be identical.
        assert_eq!(asc.collect(), desc.collect());
        assert!(asc.audit().is_valid());
    }

    #[test]
    fn bulk_into_chromatic6_defers_rebalancing_but_stays_valid() {
        let t = ChromaticTree::with_allowed_violations(6);
        let batch: Vec<(u64, u64)> = (0..2000u64).map(|k| (k, k)).collect();
        t.insert_bulk(&batch);
        assert_eq!(t.len(), 2000);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn whole_batch_into_empty_tree_installs_in_one_scx() {
        // Large allowance: the mini-subtree's intentional red-reds stay in
        // place, so the installed shape is observable.
        let t = ChromaticTree::with_allowed_violations(1000);
        let batch: Vec<(u64, u64)> = (0..64u64).map(|k| (k, 2 * k)).collect();
        let got = t.insert_bulk(&batch);
        assert!(got.iter().all(Option::is_none));
        assert_eq!(t.stats().merged_insert_scxs(), 1, "one SCX for the run");
        assert_eq!(t.stats().merged_insert_keys(), 64);
        assert_eq!(t.len(), 64);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        // Black root over weight-0 internals over weight-1 leaves: every
        // weighted path sums to 3 (audit's baseline 1 + root 1 + leaf 1),
        // and all 62 non-root internals of the 64-leaf subtree are red.
        assert_eq!(report.weighted_path_sum, Some(3));
        assert_eq!(report.zero_weight_internals, 62);
        assert_eq!(report.red_red_violations, 60);
    }

    #[test]
    fn eager_policy_cleans_merged_installs() {
        let t = ChromaticTree::new(); // allowed_violations = 0
        let batch: Vec<(u64, u64)> = (0..256u64).map(|k| (k, k)).collect();
        t.insert_bulk(&batch);
        assert!(t.stats().merged_insert_scxs() >= 1);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        assert_eq!(
            report.red_red_violations, 0,
            "eager cleanup leaves no red-red behind"
        );
        assert!(report.weighted_path_sum.is_some());
    }

    #[test]
    fn clustered_batch_merges_runs() {
        let t = ChromaticTree::new();
        // Spread-out keys, then a clustered run inside one leaf's window.
        for k in (0..1000u64).step_by(100) {
            t.insert(k, k);
        }
        let batch: Vec<(u64, u64)> = (250..290u64).map(|k| (k, k)).collect();
        let got = t.insert_bulk(&batch);
        assert!(got.iter().all(Option::is_none));
        assert!(t.stats().merged_insert_scxs() >= 1);
        assert!(t.stats().merged_insert_keys() >= 2);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        assert_eq!(t.len(), 10 + 40);
    }

    #[test]
    fn empty_remove_bulk_is_a_noop() {
        let t = ChromaticTree::<u64, u64>::new();
        assert_eq!(t.remove_bulk(&[]), Vec::<Option<u64>>::new());
        t.insert(1, 1);
        assert_eq!(t.remove_bulk(&[]), Vec::<Option<u64>>::new());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_bulk_matches_sequential_application() {
        let t = ChromaticTree::new();
        t.insert_bulk(&(0..10u64).map(|k| (k, 10 * k)).collect::<Vec<_>>());
        // Duplicates: the first removal wins, the second sees the key gone.
        let got = t.remove_bulk(&[7, 3, 99, 7, 0]);
        assert_eq!(got, vec![Some(70), Some(30), None, None, Some(0)]);
        assert_eq!(t.len(), 7);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn remove_bulk_pair_collapse_empties_sibling_leaves() {
        let t = ChromaticTree::new();
        t.insert_bulk(&(0..64u64).map(|k| (k, k)).collect::<Vec<_>>());
        let before = t.stats().merged_remove_scxs();
        let got = t.remove_bulk(&(0..64u64).collect::<Vec<_>>());
        assert!(got.iter().all(Option::is_some));
        assert!(
            t.stats().merged_remove_scxs() > before,
            "consecutive keys in sibling leaves must collapse in one SCX"
        );
        assert_eq!(t.len(), 0);
        let report = t.audit();
        assert!(report.is_valid(), "{:?}", report.errors);
        assert_eq!(report.weighted_path_sum, None, "tree drained to Fig. 10(a)");
    }

    #[test]
    fn remove_bulk_descending_and_random_orders_agree() {
        // 13 is invertible mod 301, so the keys are distinct.
        let keys: Vec<u64> = (0..300u64).map(|k| k * 13 % 301).collect();
        let asc = ChromaticTree::new();
        let desc = ChromaticTree::new();
        for t in [&asc, &desc] {
            t.insert_bulk(&keys.iter().map(|&k| (k, k)).collect::<Vec<_>>());
        }
        let victims: Vec<u64> = keys.iter().copied().step_by(2).collect();
        let mut rev = victims.clone();
        rev.reverse();
        let a = asc.remove_bulk(&victims);
        let mut d = desc.remove_bulk(&rev);
        d.reverse();
        // All victims distinct, so order must not matter.
        assert_eq!(a, d);
        assert_eq!(asc.collect(), desc.collect());
        assert!(asc.audit().is_valid());
        assert!(desc.audit().is_valid());
    }

    #[test]
    fn interleaved_bulk_insert_and_remove_keep_the_tree_valid() {
        let t = ChromaticTree::with_allowed_violations(6);
        for round in 0..8u64 {
            let base = round * 97;
            let batch: Vec<(u64, u64)> = (base..base + 200).map(|k| (k, k)).collect();
            t.insert_bulk(&batch);
            let victims: Vec<u64> = (base..base + 200).step_by(3).collect();
            let removed = t.remove_bulk(&victims);
            assert!(removed.iter().all(Option::is_some));
            let report = t.audit();
            assert!(report.is_valid(), "round {round}: {:?}", report.errors);
        }
    }
}
