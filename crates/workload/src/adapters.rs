//! A uniform `u64 → u64` map interface over every structure in the suite.
//!
//! The [`ConcurrentMap`] trait itself lives in the `sharded` crate (the
//! sharding façade must implement it, and `workload` must register the
//! façade — re-exporting from the lower crate breaks the cycle); this
//! module provides the implementations for every structure plus the
//! `make_map` registry.

use hashmap::HopMap;
use nbbst::NbBst;
use nbskiplist::SkipListMap;
use nbtree::ChromaticTree;
use ravl::RelaxedAvl;
use seqrbt::RbGlobal;
use sharded::ShardedMap;
use std::sync::Mutex;
use tinystm::RbStm;

use crate::config::SuiteConfig;

pub use sharded::{ConcurrentMap, RangeTier};

/// All registered structure names, in the order figures print them.
pub const ALL_MAPS: &[&str] = &[
    "chromatic",
    "chromatic6",
    "nbbst",
    "ravl",
    "skiplist",
    "lockavl",
    "rbstm",
    "rbglobal",
    "sharded",
    "hashmap",
    "hybrid",
];

/// A chromatic tree behind the trait, carrying its name: the registry's
/// `"chromatic"` and `"chromatic6"` entries and every shard of the
/// `"sharded"` façade (named `"chromatic-shard"`).
///
/// A concrete type rather than `Box<dyn ConcurrentMap>` so the per-shard
/// hop is a static call: the façade behind `make_map("sharded", ..)`
/// already costs one virtual dispatch at the trait object boundary, and
/// paying a second one inside every shard was measurable on the point-op
/// hot path.
pub struct ChromaticShard {
    tree: ChromaticTree<u64, u64>,
    name: &'static str,
}

impl ConcurrentMap for ChromaticShard {
    fn name(&self) -> &'static str {
        self.name
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.tree.insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.tree.remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.tree.get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.tree.range(lo..=hi)
    }
    fn range_tier(&self) -> RangeTier {
        RangeTier::Atomic // VLX-validated snapshot
    }
    fn len(&self) -> usize {
        self.tree.len()
    }
    fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
        // The façade hands each per-shard group here whole, so the group
        // gets the tree's sorted-bulk path (shared search-path prefixes
        // and same-leaf run merging), not the per-element trait default.
        self.tree.insert_bulk(batch)
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        batched_chunked(keys, |k| self.tree.get(k))
    }
    fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        // Sorted-bulk removal with sibling-pair SCX collapsing.
        self.tree.remove_bulk(keys)
    }
}

/// Chromatic `get_batch` / `remove_batch` plumbing: the key group under
/// weighted guard-cache pins, chunked at the repin cadence like every
/// batch path in the suite. A pin spanning an arbitrarily large
/// caller-controlled group would hold the global epoch back for every
/// concurrent writer's retirements (and a remove group's own garbage) —
/// chunking keeps the documented reclamation-lag bound (`REPIN_OPS`
/// operations plus one chunk) while a 64-op chunk still pays one pin.
fn batched_chunked(keys: &[u64], op: impl Fn(&u64) -> Option<u64>) -> Vec<Option<u64>> {
    let mut out = Vec::with_capacity(keys.len());
    for chunk in keys.chunks(llxscx::guard_cache::REPIN_OPS as usize) {
        llxscx::guard_cache::with_guard_weighted(chunk.len() as u32, |_guard| {
            out.extend(chunk.iter().map(&op));
        });
    }
    out
}

/// A sharded façade over chromatic-tree shards: `cfg.shards()` instances
/// splitting `[0, cfg.shard_span())` uniformly. The registry's
/// `"sharded"` entry is `make_sharded(cfg)` behind the trait object;
/// tests that need the concrete type (per-shard inspection) build it
/// through this constructor.
pub fn make_sharded(cfg: &SuiteConfig) -> ShardedMap<ChromaticShard> {
    let shards = cfg.shards();
    ShardedMap::with_span(shards, cfg.shard_span().max(shards as u64), |_| {
        ChromaticShard {
            tree: ChromaticTree::new(),
            name: "chromatic-shard",
        }
    })
}

/// Instantiates a map by name; `None` for unknown names.
///
/// All construction-time knobs arrive through the typed [`SuiteConfig`]
/// (binaries parse the environment into one exactly once, at startup) —
/// the registry itself never consults the environment, so two sweepers
/// can no longer disagree about how the same `"sharded"` entry is sized.
pub fn make_map(name: &str, cfg: &SuiteConfig) -> Option<Box<dyn ConcurrentMap>> {
    Some(match name {
        "chromatic" => Box::new(ChromaticShard {
            tree: ChromaticTree::new(),
            name: "chromatic",
        }),
        "chromatic6" => Box::new(ChromaticShard {
            tree: ChromaticTree::with_allowed_violations(6),
            name: "chromatic6",
        }),
        "nbbst" => Box::new(NbBstMap(NbBst::new())),
        "ravl" => Box::new(RelaxedAvlMap(RelaxedAvl::new())),
        "skiplist" => Box::new(SkipListAdapter(SkipListMap::new())),
        "lockavl" => Box::new(LockAvlMap(lockavl::LockAvl::new())),
        "rbstm" => Box::new(RbStmMap(RbStm::new())),
        "rbglobal" => Box::new(RbGlobalMap(RbGlobal::new())),
        "sharded" => Box::new(make_sharded(cfg)),
        "hashmap" => Box::new(HopShard::default()),
        "hybrid" => Box::new(make_hybrid(cfg)),
        _ => return None,
    })
}

// `ConcurrentMap` is now a foreign trait (it lives in `sharded`), so the
// orphan rule requires a local newtype between it and each foreign
// structure type. The wrappers are private; `make_map` still hands out
// `Box<dyn ConcurrentMap>` exactly as before.
macro_rules! impl_map {
    ($wrapper:ident, $ty:ty, $name:literal, $tier:expr) => {
        struct $wrapper($ty);

        impl ConcurrentMap for $wrapper {
            fn name(&self) -> &'static str {
                $name
            }
            fn insert(&self, k: u64, v: u64) -> Option<u64> {
                self.0.insert(k, v)
            }
            fn remove(&self, k: &u64) -> Option<u64> {
                self.0.remove(k)
            }
            fn get(&self, k: &u64) -> Option<u64> {
                self.0.get(k)
            }
            fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
                self.0.range(lo..=hi)
            }
            fn range_tier(&self) -> RangeTier {
                $tier
            }
            fn len(&self) -> usize {
                self.0.len()
            }
        }
    };
}

// Scan-consistency tiers are declared per structure (see `RangeTier`):
// the template trees return VLX-validated snapshots, `lockavl` snapshots
// its persistent root, `rbstm`/`rbglobal` scan under transactions/the
// global lock — all atomic. The skip list's per-key-linearizable scan
// was previously *grandfathered* through the atomic oracle (sequentially
// indistinguishable); it now declares its real tier.
impl_map!(NbBstMap, NbBst<u64, u64>, "nbbst", RangeTier::Atomic);
impl_map!(RelaxedAvlMap, RelaxedAvl<u64, u64>, "ravl", RangeTier::Atomic);
impl_map!(
    SkipListAdapter,
    SkipListMap<u64, u64>,
    "skiplist",
    RangeTier::PerKeyLinearizable
);
impl_map!(
    LockAvlMap,
    lockavl::LockAvl<u64, u64>,
    "lockavl",
    RangeTier::Atomic
);
impl_map!(RbStmMap, RbStm<u64, u64>, "rbstm", RangeTier::Atomic);
impl_map!(RbGlobalMap, RbGlobal<u64, u64>, "rbglobal", RangeTier::Atomic);

/// The `"hashmap"` registry entry: the hopscotch table, unsharded.
///
/// Point ops and batches go straight to [`HopMap`]; `range` is the
/// table's per-key-linearizable sorted drain (declared through
/// [`RangeTier::PerKeyLinearizable`], so the oracles assert exactly
/// that — see `workload::check_against_model`).
pub struct HopShard(HopMap<u64, u64>);

impl Default for HopShard {
    fn default() -> Self {
        HopShard(HopMap::new())
    }
}

impl ConcurrentMap for HopShard {
    fn name(&self) -> &'static str {
        "hashmap"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.0.insert(k, v)
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.0.remove(k)
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.0.get(k)
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.0.sorted_range(&lo, &hi)
    }
    fn range_tier(&self) -> RangeTier {
        RangeTier::PerKeyLinearizable
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    // The map's own batch entry points already chunk at the repin
    // cadence under weighted pins; forward so the suite's batch oracle
    // exercises that path rather than the trait default.
    fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
        self.0.insert_batch(batch)
    }
    fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.0.remove_batch(keys)
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        self.0.get_batch(keys)
    }
}

/// Key-stripe latch count per [`HybridShard`] (a power of two).
const HYBRID_LATCHES: usize = 64;

/// One shard of the `"hybrid"` registry entry: a hash tier answering the
/// point ops and their batches, dual-written with a chromatic tier that
/// answers ordered scans.
///
/// # Consistency scope
///
/// Every mutation takes a per-key-stripe latch and writes the hash tier
/// first, then the tree. The latch serializes writers *of the same key*
/// (without it, two racing inserts could commit in opposite orders in
/// the two tiers and leave them permanently disagreeing); point reads
/// take no latch and linearize on the hash tier, which is therefore the
/// authoritative one. `range` reads only the tree tier: its scan is an
/// atomic snapshot *of the tree*, but because a concurrent mutation may
/// have committed to the hash tier and not yet to the tree, the
/// composed structure's scans are **per-key linearizable** — a scan can
/// run slightly behind the point-op truth, never ahead of it and never
/// torn within a key. When the shard is quiescent the tiers agree
/// exactly (the dual-write consistency oracle in `tests/cross_crate.rs`
/// asserts this after a settled concurrent run).
pub struct HybridShard {
    hash: HopMap<u64, u64>,
    tree: ChromaticTree<u64, u64>,
    latches: Box<[Mutex<()>]>,
}

impl Default for HybridShard {
    fn default() -> Self {
        HybridShard {
            hash: HopMap::new(),
            tree: ChromaticTree::new(),
            latches: (0..HYBRID_LATCHES).map(|_| Mutex::new(())).collect(),
        }
    }
}

impl HybridShard {
    fn latched<R>(&self, k: u64, f: impl FnOnce() -> R) -> R {
        let _latch = self.latches[(k as usize) & (HYBRID_LATCHES - 1)]
            .lock()
            .unwrap();
        f()
    }

    /// Locks every stripe a batch chunk touches, in ascending stripe
    /// order. Point ops take exactly one latch (trivially consistent with
    /// any order) and every batch writer sorts, so the acquisition order
    /// is global and deadlock-free; holding the whole set lets the tree
    /// tier run its *bulk* path (run merging included) against a hash
    /// tier that cannot change under the same keys mid-batch.
    fn latch_chunk(&self, keys: impl Iterator<Item = u64>) -> Vec<std::sync::MutexGuard<'_, ()>> {
        let mut stripes: Vec<usize> = keys.map(|k| (k as usize) & (HYBRID_LATCHES - 1)).collect();
        stripes.sort_unstable();
        stripes.dedup();
        stripes
            .into_iter()
            .map(|s| self.latches[s].lock().unwrap())
            .collect()
    }
}

impl ConcurrentMap for HybridShard {
    fn name(&self) -> &'static str {
        "hybrid"
    }
    fn insert(&self, k: u64, v: u64) -> Option<u64> {
        self.latched(k, || {
            let displaced = self.hash.insert(k, v);
            let tree_displaced = self.tree.insert(k, v);
            debug_assert_eq!(displaced, tree_displaced, "tiers diverged at insert({k})");
            displaced
        })
    }
    fn remove(&self, k: &u64) -> Option<u64> {
        self.latched(*k, || {
            let removed = self.hash.remove(k);
            let tree_removed = self.tree.remove(k);
            debug_assert_eq!(removed, tree_removed, "tiers diverged at remove({k})");
            removed
        })
    }
    fn get(&self, k: &u64) -> Option<u64> {
        self.hash.get(k) // no latch: reads linearize on the hash tier
    }
    fn range(&self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        self.tree.range(lo..=hi)
    }
    fn range_tier(&self) -> RangeTier {
        // The tree's scan is atomic, but it can lag a mutation committed
        // to the (authoritative) hash tier — per-key linearizable overall.
        RangeTier::PerKeyLinearizable
    }
    fn len(&self) -> usize {
        self.hash.len()
    }
    // Batches: one weighted pin per repin-cadence chunk, the chunk's
    // stripe latches taken as a sorted set ([`Self::latch_chunk`]) so the
    // tree tier can run its *bulk* path — cached-path descent plus
    // same-leaf run merging / sibling-pair collapsing — instead of one
    // point op per element. The hash tier is still written first and
    // remains authoritative; with the stripes held, no point writer can
    // slip a same-key mutation between the two tier writes.
    fn insert_batch(&self, batch: &[(u64, u64)]) -> Vec<Option<u64>> {
        let mut out = Vec::with_capacity(batch.len());
        for chunk in batch.chunks(llxscx::guard_cache::REPIN_OPS as usize) {
            let _latches = self.latch_chunk(chunk.iter().map(|&(k, _)| k));
            llxscx::guard_cache::with_guard_weighted(chunk.len() as u32, |g| {
                let displaced: Vec<Option<u64>> = chunk
                    .iter()
                    .map(|&(k, v)| self.hash.insert_in(k, v, g))
                    .collect();
                // Nested pin: the bulk path re-enters the cached guard.
                let tree_displaced = self.tree.insert_bulk(chunk);
                debug_assert_eq!(displaced, tree_displaced, "tiers diverged in insert_batch");
                out.extend(displaced);
            });
        }
        out
    }
    fn remove_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::with_capacity(keys.len());
        for chunk in keys.chunks(llxscx::guard_cache::REPIN_OPS as usize) {
            let _latches = self.latch_chunk(chunk.iter().copied());
            llxscx::guard_cache::with_guard_weighted(chunk.len() as u32, |g| {
                let removed: Vec<Option<u64>> =
                    chunk.iter().map(|k| self.hash.remove_in(k, g)).collect();
                let tree_removed = self.tree.remove_bulk(chunk);
                debug_assert_eq!(removed, tree_removed, "tiers diverged in remove_batch");
                out.extend(removed);
            });
        }
        out
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        // Reads take no latch; chunked weighted pins like every batch path.
        let mut out = Vec::with_capacity(keys.len());
        for chunk in keys.chunks(llxscx::guard_cache::REPIN_OPS as usize) {
            llxscx::guard_cache::with_guard_weighted(chunk.len() as u32, |g| {
                out.extend(chunk.iter().map(|k| self.hash.get_in(k, g)));
            });
        }
        out
    }
}

/// The `"hybrid"` registry entry's concrete type: the sharding façade
/// over [`HybridShard`]s — heterogeneous composition, with the façade
/// contributing shard routing/grouping and each shard pairing a hash
/// tier (point ops) with a chromatic tier (ordered scans).
pub fn make_hybrid(cfg: &SuiteConfig) -> ShardedMap<HybridShard> {
    let shards = cfg.shards();
    ShardedMap::with_span(shards, cfg.shard_span().max(shards as u64), |_| {
        HybridShard::default()
    })
    .named("hybrid")
}
