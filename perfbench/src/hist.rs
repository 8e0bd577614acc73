//! Log-linear latency histogram: 64 linear sub-buckets per power of two,
//! so every bucket at or above 128 ns is at most 1/64 (1.6%) of its lower
//! edge wide, and values below 128 ns are exact. Plain counters, no heap
//! traffic per sample; one per worker per op kind, merged after the join.

/// Sub-bucket bits: 2^6 = 64 sub-buckets per octave.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Highest octave kept; larger samples land in the last bucket (2^44 ns
/// is almost five hours).
const TOP_BITS: u32 = 44;
const BUCKETS: usize = ((TOP_BITS - SUB_BITS + 1) as usize) * SUB as usize;

/// A histogram of nanosecond samples.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    n: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
            sum: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let idx = (shift as u64 + 1) * SUB + ((v >> shift) - SUB);
        (idx as usize).min(BUCKETS - 1)
    }

    /// Midpoint of a bucket's value range.
    fn value(idx: usize) -> f64 {
        let idx = idx as u64;
        if idx < 2 * SUB {
            return idx as f64;
        }
        let shift = idx / SUB - 1;
        let lo = (idx % SUB + SUB) << shift;
        lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
        self.sum += ns as u128;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile (0 < q ≤ 1) as its bucket's midpoint; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        Self::value(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut prev = Hist::index(0);
        for v in 1..1_000_000u64 {
            let i = Hist::index(v);
            assert!(i == prev || i == prev + 1, "gap at {v}");
            prev = i;
            let mid = Hist::value(i);
            assert!((mid - v as f64).abs() <= v as f64 / 64.0, "{v} -> {mid}");
        }
    }

    #[test]
    fn quantiles_follow_the_samples() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() < 50_000.0 * 0.02, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() < 99_000.0 * 0.02, "{p99}");
        assert_eq!(h.count(), 1000);
    }
}
