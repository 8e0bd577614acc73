//! Sequential correctness of the chromatic tree against a model, with full
//! invariant audits at every checkpoint.

use nbtree::ChromaticTree;
use std::collections::BTreeMap;

fn audit_ok(t: &ChromaticTree<u64, u64>) {
    let report = t.audit();
    assert!(report.is_valid(), "invariant breach: {:?}", report.errors);
    assert_eq!(
        report.violations(),
        0,
        "violations at quiescence: {report:?}"
    );
}

#[test]
fn empty_tree_queries() {
    let t: ChromaticTree<u64, u64> = ChromaticTree::new();
    assert_eq!(t.get(&1), None);
    assert_eq!(t.remove(&1), None);
    assert_eq!(t.successor(&1), None);
    assert_eq!(t.predecessor(&1), None);
    assert_eq!(t.first(), None);
    assert_eq!(t.last(), None);
    assert!(t.is_empty());
    assert_eq!(t.len(), 0);
    audit_ok(&t);
}

#[test]
fn single_key_lifecycle() {
    let t = ChromaticTree::new();
    assert_eq!(t.insert(5, 50), None);
    audit_ok(&t);
    assert_eq!(t.get(&5), Some(50));
    assert_eq!(t.len(), 1);
    assert!(!t.is_empty());
    assert_eq!(t.insert(5, 55), Some(50));
    assert_eq!(t.get(&5), Some(55));
    audit_ok(&t);
    assert_eq!(t.remove(&5), Some(55));
    assert_eq!(t.get(&5), None);
    assert!(t.is_empty());
    audit_ok(&t);
}

#[test]
fn ascending_inserts_stay_balanced() {
    let t = ChromaticTree::new();
    let n = 4096u64;
    for i in 0..n {
        t.insert(i, i * 2);
        // The first inserts build the tree's shape: audit after each, so
        // a breach names the insert that caused it.
        if i < 200 {
            audit_ok(&t);
        }
    }
    audit_ok(&t);
    assert_eq!(t.len(), n as usize);
    let h = t.height();
    // A red-black tree over n keys has height ≤ 2 log2(n+1); leaf-oriented
    // doubles the node count, allow slack.
    let bound = 2 * (64 - (n + 1).leading_zeros() as usize) + 4;
    assert!(h <= bound, "height {h} exceeds RBT bound {bound}");
    for i in 0..n {
        assert_eq!(t.get(&i), Some(i * 2));
    }
}

#[test]
fn descending_and_interleaved_deletes() {
    let t = ChromaticTree::new();
    let n = 2048u64;
    for i in (0..n).rev() {
        t.insert(i, i);
    }
    audit_ok(&t);
    for i in (0..n).step_by(2) {
        assert_eq!(t.remove(&i), Some(i));
    }
    audit_ok(&t);
    assert_eq!(t.len(), (n / 2) as usize);
    for i in 0..n {
        assert_eq!(t.get(&i), if i % 2 == 1 { Some(i) } else { None });
    }
    for i in (1..n).step_by(2) {
        assert_eq!(t.remove(&i), Some(i));
    }
    assert!(t.is_empty());
    audit_ok(&t);
}

#[test]
fn random_ops_match_btreemap() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for trial in 0..8 {
        let t = ChromaticTree::new();
        let mut model = BTreeMap::new();
        for step in 0..4000 {
            let k = rng.gen_range(0..256u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(t.insert(k, step), model.insert(k, step), "insert {k}"),
                1 => assert_eq!(t.remove(&k), model.remove(&k), "remove {k}"),
                _ => assert_eq!(t.get(&k), model.get(&k).copied(), "get {k}"),
            }
        }
        audit_ok(&t);
        let ours = t.collect();
        let theirs: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(ours, theirs, "trial {trial} final contents differ");
    }
}

#[test]
fn successor_predecessor_match_model() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    let t = ChromaticTree::new();
    let mut model = BTreeMap::new();
    for _ in 0..2000 {
        let k = rng.gen_range(0..512u64);
        if rng.gen_bool(0.7) {
            t.insert(k, k);
            model.insert(k, k);
        } else {
            t.remove(&k);
            model.remove(&k);
        }
        let probe = rng.gen_range(0..512u64);
        let succ = model.range(probe + 1..).next().map(|(k, v)| (*k, *v));
        assert_eq!(t.successor(&probe), succ, "successor of {probe}");
        let pred = model.range(..probe).next_back().map(|(k, v)| (*k, *v));
        assert_eq!(t.predecessor(&probe), pred, "predecessor of {probe}");
        assert_eq!(t.first(), model.iter().next().map(|(k, v)| (*k, *v)));
        assert_eq!(t.last(), model.iter().next_back().map(|(k, v)| (*k, *v)));
    }
    audit_ok(&t);
}

#[test]
fn chromatic6_variant_correct_and_balanced_enough() {
    let t = ChromaticTree::with_allowed_violations(6);
    let n = 4096u64;
    for i in 0..n {
        t.insert(i, i);
    }
    let report = t.audit();
    assert!(report.is_valid(), "{:?}", report.errors);
    for i in 0..n {
        assert_eq!(t.get(&i), Some(i));
    }
    for i in 0..n / 2 {
        assert_eq!(t.remove(&i), Some(i));
    }
    let report = t.audit();
    assert!(report.is_valid(), "{:?}", report.errors);
    assert_eq!(t.len(), (n / 2) as usize);
}

#[test]
fn rebalance_steps_are_amortized_constant() {
    // Boyar–Fagerberg–Larsen: ≤ 3 rebalancing steps per insert + 1 per
    // delete, amortized, starting from an empty tree.
    let t = ChromaticTree::new();
    let n = 8192u64;
    for i in 0..n {
        t.insert(i.wrapping_mul(0x9E3779B97F4A7C15) % 100_000, i);
    }
    let inserts = n;
    let steps = t.stats().total_steps();
    assert!(
        steps <= 3 * inserts,
        "rebalancing steps {steps} exceed 3·inserts {}",
        3 * inserts
    );
}
