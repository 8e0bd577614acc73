//! # Non-blocking trees from the tree update template
//!
//! A Rust reproduction of **"A General Technique for Non-blocking Trees"**
//! (Brown, Ellen, Ruppert — PPoPP 2014). The paper contributes:
//!
//! 1. a **tree update template** ([`template`]) that turns any down-tree
//!    data structure into a provably linearizable, non-blocking one, built
//!    on the LLX/SCX/VLX primitives (crate [`llxscx`]);
//! 2. a **non-blocking chromatic tree** ([`ChromaticTree`]) — the first
//!    provably correct non-blocking balanced BST with fine-grained
//!    synchronization — with height `O(c + log n)` for `n` keys and `c`
//!    in-progress updates.
//!
//! The ordered-dictionary API: [`ChromaticTree::get`],
//! [`insert`](ChromaticTree::insert), [`remove`](ChromaticTree::remove),
//! [`successor`](ChromaticTree::successor),
//! [`predecessor`](ChromaticTree::predecessor),
//! [`range`](ChromaticTree::range) — all linearizable, all lock-free;
//! `get` uses only plain reads, and `range` takes an atomic multi-key
//! snapshot through a VLX-validated scan (the [`range`] module) without
//! freezing records or slowing writers.
//!
//! ```
//! use nbtree::ChromaticTree;
//!
//! let tree = ChromaticTree::new();
//! tree.insert(10, "ten");
//! tree.insert(20, "twenty");
//! assert_eq!(tree.successor(&10), Some((20, "twenty")));
//! assert_eq!(tree.remove(&10), Some("ten"));
//!
//! // The "Chromatic6" variant of the paper (§5.6): tolerate up to six
//! // violations on a search path before rebalancing.
//! let relaxed = ChromaticTree::with_allowed_violations(6);
//! relaxed.insert(1, 1);
//! ```

#![warn(missing_docs)]

pub mod chromatic;
pub mod leaf_tree;
pub mod node;
pub mod range;
pub mod template;

pub use chromatic::stats::STEP_NAMES;
pub use chromatic::{AuditReport, ChromaticTree, Stats};
pub use range::try_range_scan;
pub use template::{tree_update, Interfered, TemplateStep};
