//! Output checks. Every write stores `(k, k)`, so any value returned for
//! key `k` must equal `k`; the net count of effective inserts and removes
//! must equal the structure's `len()` after the join; every tree must pass
//! its `audit()`. Each violation counts as one failed operation.

use crate::rng::Kind;

/// Per-worker op accounting, merged after the join.
#[derive(Clone, Copy, Default, Debug)]
pub struct Tally {
    pub ops: u64,
    pub gets: u64,
    pub updates: u64,
    /// Results whose value differed from the key.
    pub wrong: u64,
    /// Inserts that returned `None` (the key was new).
    pub added: u64,
    /// Removes that returned `Some` (the key was present).
    pub removed: u64,
}

impl Tally {
    /// Accounts one completed operation and checks its result.
    #[inline]
    pub fn record(&mut self, kind: Kind, key: u64, got: Option<u64>) {
        self.ops += 1;
        if got.is_some_and(|v| v != key) {
            self.wrong += 1;
        }
        match kind {
            Kind::Get => self.gets += 1,
            Kind::Insert => {
                self.updates += 1;
                self.added += u64::from(got.is_none());
            }
            Kind::Remove => {
                self.updates += 1;
                self.removed += u64::from(got.is_some());
            }
        }
    }

    pub fn merge(&mut self, o: &Tally) {
        self.ops += o.ops;
        self.gets += o.gets;
        self.updates += o.updates;
        self.wrong += o.wrong;
        self.added += o.added;
        self.removed += o.removed;
    }
}

/// The run's verdict: attempted and failed operations plus the reasons.
#[derive(Default, Debug)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    /// Folds a tally in: its ops are attempted, its wrong values failed.
    pub fn absorb(&mut self, t: &Tally) {
        self.attempted += t.ops;
        if t.wrong > 0 {
            self.fail(
                t.wrong,
                format!("{} results differ from their key", t.wrong),
            );
        }
    }

    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n.max(1);
        self.notes.push(why);
    }

    /// `prefill + added − removed` must equal the final `len()`.
    pub fn check_len(&mut self, what: &str, prefill: usize, t: &Tally, len: usize) {
        let expect = prefill as i64 + t.added as i64 - t.removed as i64;
        if expect != len as i64 {
            self.fail(
                expect.abs_diff(len as i64),
                format!("{what}: len() is {len}, the op results imply {expect}"),
            );
        }
    }

    pub fn check_audit(&mut self, what: &str, valid: bool) {
        if !valid {
            self.fail(1, format!("{what}: audit() found violations"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_value_is_counted_as_failed() {
        let mut t = Tally::default();
        t.record(Kind::Get, 7, Some(7));
        t.record(Kind::Get, 8, None);
        t.record(Kind::Insert, 9, Some(10)); // negative control: wrong value
        let mut v = Verdict::default();
        v.absorb(&t);
        assert_eq!((v.attempted, v.failed), (3, 1));
        assert!(!v.correct());
    }

    #[test]
    fn a_len_mismatch_is_counted_as_failed() {
        let mut t = Tally::default();
        t.record(Kind::Insert, 1, None);
        t.record(Kind::Remove, 2, Some(2));
        let mut v = Verdict::default();
        v.absorb(&t);
        v.check_len("tree", 10, &t, 10);
        assert!(v.correct(), "{:?}", v.notes);
        v.check_len("tree", 10, &t, 12);
        assert_eq!(v.failed, 2);
    }
}
