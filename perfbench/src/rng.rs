//! Seeded input generation. Every key, op kind and arrival time a run
//! uses comes from a splitmix64 stream named by `(seed, stream)`, so the
//! same `--seed` gives the same inputs.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// An operation mix: percentages of inserts and removes, gets the rest.
#[derive(Clone, Copy)]
pub struct Mix {
    pub insert_pct: u64,
    pub remove_pct: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Get,
    Insert,
    Remove,
}

impl Mix {
    /// Share of the keyspace present in steady state: each key is
    /// inserted at rate `i` and removed at rate `d`.
    pub fn steady_fraction(&self) -> f64 {
        self.insert_pct as f64 / (self.insert_pct + self.remove_pct) as f64
    }

    #[inline]
    pub fn draw(&self, rng: &mut Rng, key_range: u64) -> (Kind, u64) {
        let key = rng.below(key_range);
        let roll = rng.below(100);
        let kind = if roll < self.insert_pct {
            Kind::Insert
        } else if roll < self.insert_pct + self.remove_pct {
            Kind::Remove
        } else {
            Kind::Get
        };
        (kind, key)
    }
}

/// The steady-state key set for `mix` over `[0, key_range)`, in a seeded
/// random insertion order.
pub fn prefill_keys(mix: Mix, key_range: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0xF111);
    let keep = mix.steady_fraction();
    let mut keys: Vec<u64> = (0..key_range).filter(|_| rng.unit() < keep).collect();
    for i in (1..keys.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        keys.swap(i, j);
    }
    keys
}
