//! Typed suite configuration: the **single** place the suite-construction
//! environment knobs (`NBTREE_SHARDS`, `NBTREE_SHARD_SPAN`) are parsed.
//!
//! Before this module, the `"sharded"` registry entry read its shard count
//! and keyspace span straight from the environment at every `make_map`
//! call, so every `ALL_MAPS` sweeper had to remember to *pin*
//! `NBTREE_SHARD_SPAN` to its key range via `std::env::set_var` before
//! constructing maps (six call sites), or its sharded cells silently
//! measured a one-shard boundary table. `set_var` is also a process-global
//! data race waiting to happen (it becomes `unsafe` at edition 2024).
//!
//! [`SuiteConfig`] replaces that discipline with construction-time
//! plumbing: binaries call [`SuiteConfig::from_env`] **once** at startup,
//! adapt it to the keyspace they sweep with
//! [`for_key_range`](SuiteConfig::for_key_range), and thread the value
//! through [`make_map`](crate::make_map) / [`measure`](crate::measure).
//! A mis-sized boundary table is now unrepresentable by construction: the
//! config that built the map is the config the map used, and nothing in
//! the suite mutates the environment. `nblint`'s `cfg-env` rule (see
//! `docs/TESTING.md`) keeps `set_var` from creeping back in.

/// Construction-time configuration for the structure registry
/// ([`make_map`](crate::make_map)) and the harness entry points.
///
/// Today this covers the sharded façade's two knobs — shard count and the
/// keyspace span its uniform boundary table splits — plus the *pinning*
/// bit that records whether the span was chosen explicitly (builder or
/// environment) or merely defaulted. Sweepers use that bit through
/// [`for_key_range`](Self::for_key_range): an explicit span is respected,
/// a defaulted one is re-sized to the key range actually swept.
///
/// # Examples
///
/// ```
/// use workload::SuiteConfig;
///
/// // Builder: 4 shards over [0, 400). Counts round to a power of two.
/// let cfg = SuiteConfig::default().with_shards(4).with_span(400);
/// assert_eq!(cfg.shards(), 4);
/// assert_eq!(cfg.shard_span(), 400);
///
/// // A sweep adapts a *defaulted* span to its key range…
/// let swept = SuiteConfig::default().for_key_range(1_000_000);
/// assert_eq!(swept.shard_span(), 1_000_000);
///
/// // …but never overrides an explicit one.
/// let pinned = SuiteConfig::default().with_span(512).for_key_range(1_000_000);
/// assert_eq!(pinned.shard_span(), 512);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuiteConfig {
    shards: usize,
    shard_span: u64,
    /// Whether `shard_span` was chosen explicitly (env var or
    /// [`with_span`](Self::with_span)) rather than defaulted —
    /// [`for_key_range`](Self::for_key_range) only re-sizes a defaulted
    /// span.
    span_pinned: bool,
}

/// Default shard count of the `"sharded"` registry entry.
pub const DEFAULT_SHARDS: usize = 8;

/// Default keyspace span split by the `"sharded"` entry's boundary table
/// (the default bench key range).
pub const DEFAULT_SHARD_SPAN: u64 = 10_000;

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            shards: DEFAULT_SHARDS,
            shard_span: DEFAULT_SHARD_SPAN,
            span_pinned: false,
        }
    }
}

impl SuiteConfig {
    /// Reads the suite-construction knobs from the environment — the one
    /// place in the workspace they are parsed. Call once at binary
    /// startup and thread the value through; library code and tests
    /// should build configs with [`Default`] and the builder methods
    /// instead of consulting the environment.
    ///
    /// | Variable | Meaning | Default |
    /// |---|---|---|
    /// | `NBTREE_SHARDS` | shard count (rounded up to a power of two, clamped to `[1, 1024]`) | `8` |
    /// | `NBTREE_SHARD_SPAN` | keyspace span `[0, span)` split by the boundary table; setting it pins the span against [`for_key_range`](Self::for_key_range) | `10000` |
    ///
    /// Unparsable or zero values fall back to the defaults (and do not
    /// pin the span).
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// [`from_env`](Self::from_env) over an arbitrary variable source, so
    /// the parsing rules are unit-testable without touching the process
    /// environment.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Self {
        let mut cfg = SuiteConfig::default();
        if let Some(n) = get("NBTREE_SHARDS").and_then(|s| s.trim().parse::<usize>().ok()) {
            cfg = cfg.with_shards(n);
        }
        if let Some(span) = get("NBTREE_SHARD_SPAN")
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|&s| s > 0)
        {
            cfg = cfg.with_span(span);
        }
        cfg
    }

    /// Sets the shard count, rounded up to a power of two and clamped to
    /// `[1, 1024]` (the boundary-table constructors require a power of
    /// two; the clamp keeps a typo from allocating a million trees).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.clamp(1, 1024).next_power_of_two();
        self
    }

    /// Sets the keyspace span explicitly and **pins** it: a later
    /// [`for_key_range`](Self::for_key_range) will not re-size it. Zero
    /// is rounded up to 1 (a span must be non-empty).
    pub fn with_span(mut self, span: u64) -> Self {
        self.shard_span = span.max(1);
        self.span_pinned = true;
        self
    }

    /// Adapts a *defaulted* span to the key range a sweep is about to
    /// use, leaving an explicitly chosen span (env var or
    /// [`with_span`](Self::with_span)) untouched. Multi-range sweeps call
    /// this once per range block; the span stays un-pinned so the next
    /// block can adapt it again.
    ///
    /// This replaces the old `set_var("NBTREE_SHARD_SPAN", ..)` pinning
    /// discipline: without it, a sweep over a range much smaller than the
    /// default span piles every key into the first shard and the sharded
    /// cells measure a misconfiguration.
    pub fn for_key_range(mut self, range: u64) -> Self {
        if !self.span_pinned {
            self.shard_span = range.max(1);
        }
        self
    }

    /// Shard count of the `"sharded"` registry entry (always a power of
    /// two in `[1, 1024]`).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Keyspace span `[0, span)` split uniformly by the `"sharded"`
    /// entry's boundary table (always ≥ 1).
    pub fn shard_span(&self) -> u64 {
        self.shard_span
    }

    /// Whether the span was chosen explicitly (and is therefore immune to
    /// [`for_key_range`](Self::for_key_range)).
    pub fn span_is_pinned(&self) -> bool {
        self.span_pinned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let cfg = SuiteConfig::default();
        assert_eq!(cfg.shards(), DEFAULT_SHARDS);
        assert_eq!(cfg.shard_span(), DEFAULT_SHARD_SPAN);
        assert!(!cfg.span_is_pinned());
    }

    #[test]
    fn shard_counts_clamp_and_round_to_powers_of_two() {
        assert_eq!(SuiteConfig::default().with_shards(8).shards(), 8);
        assert_eq!(SuiteConfig::default().with_shards(5).shards(), 8);
        assert_eq!(SuiteConfig::default().with_shards(0).shards(), 1);
        assert_eq!(SuiteConfig::default().with_shards(1).shards(), 1);
        assert_eq!(SuiteConfig::default().with_shards(9999).shards(), 1024);
        assert_eq!(SuiteConfig::default().with_shards(1000).shards(), 1024);
    }

    #[test]
    fn spans_pin_and_reject_zero() {
        let cfg = SuiteConfig::default().with_span(400);
        assert_eq!(cfg.shard_span(), 400);
        assert!(cfg.span_is_pinned());
        assert_eq!(SuiteConfig::default().with_span(0).shard_span(), 1);
    }

    #[test]
    fn for_key_range_resizes_only_defaulted_spans() {
        // Defaulted span: each range block re-sizes it.
        let cfg = SuiteConfig::default().for_key_range(100);
        assert_eq!(cfg.shard_span(), 100);
        assert_eq!(cfg.for_key_range(1_000_000).shard_span(), 1_000_000);
        // Pinned span: untouched.
        let pinned = SuiteConfig::default().with_span(512);
        assert_eq!(pinned.for_key_range(100).shard_span(), 512);
        // Degenerate range still yields a legal span.
        assert_eq!(SuiteConfig::default().for_key_range(0).shard_span(), 1);
    }

    #[test]
    fn env_round_trip_through_a_lookup() {
        // The parsing rules, exercised without mutating the process
        // environment (nothing in the suite may call `set_var`;
        // `nblint`'s `cfg-env` rule enforces that).
        let vars = |shards: Option<&str>, span: Option<&str>| {
            let (shards, span) = (shards.map(String::from), span.map(String::from));
            SuiteConfig::from_lookup(move |name| match name {
                "NBTREE_SHARDS" => shards.clone(),
                "NBTREE_SHARD_SPAN" => span.clone(),
                _ => None,
            })
        };
        let cfg = vars(Some("16"), Some("4096"));
        assert_eq!(cfg.shards(), 16);
        assert_eq!(cfg.shard_span(), 4096);
        assert!(cfg.span_is_pinned(), "env span counts as explicit");

        // Unset: defaults, span un-pinned.
        let cfg = vars(None, None);
        assert_eq!(cfg, SuiteConfig::default());

        // Rounding/clamping applies to env values too; junk and zero fall
        // back to the defaults without pinning.
        assert_eq!(vars(Some("5"), None).shards(), 8);
        assert_eq!(vars(Some("99999"), None).shards(), 1024);
        let junk = vars(Some("wat"), Some("0"));
        assert_eq!(junk, SuiteConfig::default());
        assert!(!junk.span_is_pinned());
        // Whitespace is tolerated (values often arrive via shell).
        assert_eq!(vars(None, Some(" 777 ")).shard_span(), 777);
    }
}
