//! The read-side API every template tree takes from `nbtree::leaf_tree::LeafTree`:
//! `contains_key` agrees with `get` after every op, and a tree drained of
//! several hundred keys reads as empty through `is_empty`, `len`,
//! `collect` and `range`.

use std::collections::BTreeMap;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Distinct keys in play; ops draw from `[0, 2 * KEYS)`.
const KEYS: u64 = 400;

macro_rules! shell_battery {
    ($tree:expr) => {{
        let t = $tree;
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(0x5e11);
        let check = |model: &BTreeMap<u64, u64>, k: u64, op: &str| {
            assert_eq!(t.get(&k), model.get(&k).copied(), "get({k}) after {op}");
            assert_eq!(
                t.contains_key(&k),
                t.get(&k).is_some(),
                "contains_key({k}) after {op}"
            );
            assert_eq!(t.is_empty(), model.is_empty(), "is_empty after {op}({k})");
        };
        for step in 0..4 * KEYS {
            let k = rng.gen_range(0..2 * KEYS);
            if rng.gen_bool(0.7) {
                assert_eq!(t.insert(k, step), model.insert(k, step));
                check(&model, k, "insert");
            } else {
                assert_eq!(t.remove(&k), model.remove(&k));
                check(&model, k, "remove");
            }
        }
        assert!(
            model.len() > KEYS as usize / 2,
            "the drain must cover many keys"
        );
        assert_eq!(t.len(), model.len());
        for k in model.keys().copied().collect::<Vec<_>>() {
            assert_eq!(t.remove(&k), model.remove(&k));
            check(&model, k, "drain");
        }
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.collect().is_empty());
        assert!(t.range(..).is_empty());
    }};
}

#[test]
fn chromatic_shell_reads_agree_and_drain_to_empty() {
    shell_battery!(nbtree::ChromaticTree::<u64, u64>::new());
}

#[test]
fn nbbst_shell_reads_agree_and_drain_to_empty() {
    shell_battery!(nbbst::NbBst::<u64, u64>::new());
}

#[test]
fn ravl_shell_reads_agree_and_drain_to_empty() {
    shell_battery!(ravl::RelaxedAvl::<u64, u64>::new());
}
